"""Sublattice generation, gadgets, and the nine-element free lattice on
the fence poset B < C with A incomparable to both.

A gadget G(a; b, c) is the sublattice generated by three distinct
elements with b < c, a || b, a || c.  Every gadget is the image of the
nine elements of FL(P) under the evaluation homomorphism; the gadget's
fingerprint is the partition those nine named terms induce by equality
of their images, and its iso class is the canonical form of the
generated sublattice.
"""

from dataclasses import dataclass

from .core import FiniteLattice, _leq_of, canonical_key, parallel_map, preserves_operations
from .errors import BadConfiguration, InvariantViolated, UniversalityFailure
from .freeterm import eval_term, parse

FLP_TERMS = {  # in the element order of flp_nine
    "AB": parse("A*B"),
    "AC": parse("A*C"),
    "B": parse("B"),
    "AC+B": parse("A*C+B"),
    "A": parse("A"),
    "(A+B)C": parse("(A+B)*C"),
    "C": parse("C"),
    "A+B": parse("A+B"),
    "A+C": parse("A+C"),
}

# Name map induced by order duality (B and C swap, joins and meets swap).
FLP_DUALITY = {
    "A": "A",
    "B": "C",
    "C": "B",
    "AB": "A+C",
    "AC": "A+B",
    "AC+B": "(A+B)C",
    "(A+B)C": "AC+B",
    "A+B": "AC",
    "A+C": "AB",
}


def flp_nine():
    """The nine-element free lattice FL(P), hard-coded from its diagram.

    Covers: AB < AC, AB < B, AC < A, AC < AC+B, B < AC+B,
    AC+B < (A+B)C, (A+B)C < A+B, (A+B)C < C, A < A+B, A+B < A+C,
    C < A+C.
    """
    index = {name: i for i, name in enumerate(FLP_TERMS)}
    cover_names = [
        ("AB", "AC"),
        ("AB", "B"),
        ("AC", "A"),
        ("AC", "AC+B"),
        ("B", "AC+B"),
        ("AC+B", "(A+B)C"),
        ("(A+B)C", "A+B"),
        ("(A+B)C", "C"),
        ("A", "A+B"),
        ("A+B", "A+C"),
        ("C", "A+C"),
    ]
    covers = [(index[lo], index[hi]) for lo, hi in cover_names]
    L = FiniteLattice.from_covers(9, covers, names=list(FLP_TERMS))
    # transcription guard: the three generators must regenerate everything
    gen = generate_sublattice(L, {index["A"], index["B"], index["C"]})
    if gen != set(range(9)):
        raise InvariantViolated("FL(P) transcription error")
    return L


def generate_sublattice(L, seed):
    """Least subset containing seed closed under join and meet."""
    seed = set(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    current = set(seed)
    frontier = list(current)
    while frontier:
        fresh = []
        members = list(current)
        for x in frontier:
            for y in members:
                for z in (L.join(x, y), L.meet(x, y)):
                    if z not in current:
                        current.add(z)
                        fresh.append(z)
        frontier = fresh
    return current


@dataclass(frozen=True)
class GadgetReport:
    generators: tuple
    generated: tuple
    size: int
    fingerprint: tuple  # partition of the nine FL(P) names by image
    iso_class: tuple  # canonical form of the generated sublattice

    def to_json_dict(self):
        return {
            "generators": list(self.generators),
            "generated": list(self.generated),
            "size": self.size,
            "fingerprint": [list(block) for block in self.fingerprint],
            "iso_class": _key_to_covers(self.iso_class),
        }


def _key_to_covers(key):
    """Canonical keys are down-set masks; emit the covers of their order."""
    return [list(c) for c in FiniteLattice(_leq_of(key).T, _validated=True).covers]


def iter_admissible_triples(L):
    """Each (a, b, c) with b < c, a parallel to b and to c, ascending."""
    n = L.n
    for a in range(n):
        for b in range(n):
            if L.incomparable(a, b):
                for c in range(n):
                    if c != b and L.le(b, c) and L.incomparable(a, c):
                        yield a, b, c


def _flp_images(L, a, b, c):
    """The images of the nine FL(P) elements, in FLP_TERMS order, under
    A -> a, B -> b, C -> c."""
    assignment = {"A": a, "B": b, "C": c}
    return [eval_term(term, L, assignment) for term in FLP_TERMS.values()]


def gadget(L, a, b, c):
    """Generate and fingerprint the gadget G(a; b, c)."""
    if len({a, b, c}) != 3:
        raise BadConfiguration("a, b, c distinct")
    if not (L.le(b, c) and b != c):
        raise BadConfiguration("b < c")
    if not L.incomparable(a, b):
        raise BadConfiguration("a || b")
    if not L.incomparable(a, c):
        raise BadConfiguration("a || c")
    images = _flp_images(L, a, b, c)
    generated = generate_sublattice(L, {a, b, c})
    if generated != set(images):
        raise InvariantViolated("gadget closure beyond FL(P) images")
    by_image = {}
    for name, image in zip(FLP_TERMS, images):
        by_image.setdefault(image, []).append(name)
    fingerprint = tuple(
        sorted(tuple(sorted(block)) for block in by_image.values())
    )
    sub, _ = L.restrict(generated)
    return GadgetReport(
        generators=(a, b, c),
        generated=tuple(sorted(generated)),
        size=len(generated),
        fingerprint=fingerprint,
        iso_class=canonical_key(sub),
    )


def verify_universal(L):
    """Check the universal property on every admissible triple of L.

    The generator assignment A->a, B->b, C->c must extend to a
    join/meet-preserving map of FL(P) onto the gadget; the extension is
    evaluation of the nine terms and uniqueness is forced on
    generators.  Failure would indicate an implementation bug.  Returns
    the number of triples checked.
    """
    F = flp_nine()
    checked = 0
    for a, b, c in iter_admissible_triples(L):
        phi = _flp_images(L, a, b, c)
        if set(phi) != generate_sublattice(L, {a, b, c}) or not preserves_operations(phi, F, L):
            raise UniversalityFailure((a, b, c))
        checked += 1
    return checked


@dataclass(frozen=True)
class GadgetCensus:
    lattices: int
    gadgets: int
    pairs: dict  # (fingerprint, iso_class) -> count
    fingerprints: dict  # fingerprint -> count
    iso_classes: dict  # canonical key -> count

    def to_json_dict(self):
        return {
            "lattices": self.lattices,
            "gadgets": self.gadgets,
            "distinct_pairs": len(self.pairs),
            "distinct_fingerprints": len(self.fingerprints),
            "distinct_iso_classes": len(self.iso_classes),
            "cases": [
                {
                    "fingerprint": [list(b) for b in fp],
                    "gadget_size": len(key),
                    "count": count,
                }
                for (fp, key), count in sorted(self.pairs.items())
            ],
            "iso_class_sizes": sorted(len(key) for key in self.iso_classes),
        }

    @property
    def passes(self):
        """The census bound: at most six iso classes and seven
        fingerprints."""
        return len(self.iso_classes) <= 6 and len(self.fingerprints) <= 7


def census_one(L):
    """(fingerprint, iso_class) multiset of a single lattice's gadgets."""
    pairs, total = {}, 0
    for a, b, c in iter_admissible_triples(L):
        report = gadget(L, a, b, c)
        total += 1
        key = (report.fingerprint, report.iso_class)
        pairs[key] = pairs.get(key, 0) + 1
    return total, pairs


def gadget_census(lattices, jobs=1):
    """Count gadget (fingerprint, iso class) cases over a lattice stream."""
    lattices = list(lattices)
    results = parallel_map(census_one, lattices, jobs, chunksize=8)
    pairs, gadgets = {}, 0
    for total, chunk in results:
        gadgets += total
        for key, count in chunk.items():
            pairs[key] = pairs.get(key, 0) + count
    fingerprints, iso_classes = {}, {}
    for (fp, key), count in pairs.items():
        fingerprints[fp] = fingerprints.get(fp, 0) + count
        iso_classes[key] = iso_classes.get(key, 0) + count
    return GadgetCensus(
        lattices=len(lattices),
        gadgets=gadgets,
        pairs=pairs,
        fingerprints=fingerprints,
        iso_classes=iso_classes,
    )
