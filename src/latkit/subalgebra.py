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

import numpy as np

from .core import FiniteLattice, _dwn_of, _leq_of, canonical_form, chunk_ranges, preserves_operations
from .errors import BadConfiguration, InvariantViolated, LatkitError, UniversalityFailure
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
    """The nine-element free lattice FL(P), hard-coded from its covers."""
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
    """Least subset containing seed closed under join and meet.  Round by
    round, the tables give the joins and meets of each new element with
    every element so far, in chunks of at most CHUNK entries."""
    inside = np.zeros(L.n, dtype=bool)
    inside[list(seed)] = True
    if not inside.any():
        raise ValueError("seed must be nonempty")
    fresh = inside
    while fresh.any():
        rows, members = np.flatnonzero(fresh), np.flatnonzero(inside)
        grown = inside.copy()
        for start, stop in chunk_ranges(len(rows), len(members)):
            cell = rows[start:stop, None], members
            grown[L.join_table[cell]] = True
            grown[L.meet_table[cell]] = True
        fresh, inside = grown & ~inside, grown
    return set(np.flatnonzero(inside).tolist())


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
    """Fingerprint the gadget G(a; b, c), the sublattice generated by a,
    b and c: the set of the nine FL(P) images, with no closure run.  As
    b < c, evaluation at A -> a, B -> b, C -> c is a homomorphism
    FL(P) -> L (FL(P)'s universal property; Freese, Jezek and Nation,
    Free Lattices, 1995), so its image is a sublattice holding a, b and
    c; and A, B, C generate FL(P) (flp_nine's transcription guard), so
    every image lies in the sublattice that a, b and c generate.  The
    gadget is FL(P)/theta, where theta is the fingerprint's partition (the
    kernel of that homomorphism), so its iso class is a function of its
    fingerprint."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not 0 <= value < L.n:
            raise LatkitError(f"element {name}={value} out of range for n={L.n}")
    if len({a, b, c}) != 3:
        raise BadConfiguration("a, b, c distinct")
    if not (L.le(b, c) and b != c):
        raise BadConfiguration("b < c")
    if not L.incomparable(a, b):
        raise BadConfiguration("a || b")
    if not L.incomparable(a, c):
        raise BadConfiguration("a || c")
    images = _flp_images(L, a, b, c)
    by_image = {}
    for name, image in zip(FLP_TERMS, images):
        by_image.setdefault(image, []).append(name)
    fingerprint = tuple(
        sorted(tuple(sorted(block)) for block in by_image.values())
    )
    generated = sorted(by_image)
    return GadgetReport(
        generators=(a, b, c),
        generated=tuple(generated),
        size=len(generated),
        fingerprint=fingerprint,
        iso_class=canonical_form(_dwn_of(L.leq[np.ix_(generated, generated)]))[0],
    )


def verify_universal(L):
    """Check the universal property on every admissible triple of L.

    A->a, B->b, C->c must extend to a join/meet-preserving map FL(P) ->
    L; the extension is evaluation of the nine terms, unique as it is
    forced on generators, so preserves_operations is the whole test.  Its
    image is a sublattice, and the one a, b and c generate, as A, B and C
    generate FL(P) (flp_nine's guard).  Failure would indicate an
    implementation bug.  Returns the number of triples checked."""
    F = flp_nine()
    checked = 0
    for a, b, c in iter_admissible_triples(L):
        if not preserves_operations(_flp_images(L, a, b, c), F, L):
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


def gadget_census(lattices):
    """Count gadget (fingerprint, iso class) cases over a lattice stream
    in one serial pass that keeps no lattice."""
    pairs, seen, gadgets = {}, 0, 0
    for L in lattices:
        total, chunk = census_one(L)
        seen += 1
        gadgets += total
        for key, count in chunk.items():
            pairs[key] = pairs.get(key, 0) + count
    fingerprints, iso_classes = {}, {}
    for (fp, key), count in pairs.items():
        fingerprints[fp] = fingerprints.get(fp, 0) + count
        iso_classes[key] = iso_classes.get(key, 0) + count
    return GadgetCensus(
        lattices=seen,
        gadgets=gadgets,
        pairs=pairs,
        fingerprints=fingerprints,
        iso_classes=iso_classes,
    )
