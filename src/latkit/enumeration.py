"""Exhaustive generation of small finite lattices, one representative
per isomorphism class, and the scanners built on the stream.

Generation scheme: a finite lattice minus its top is a meet-semilattice
and every finite meet-semilattice plus a new top is a lattice, so
n-element lattices correspond to (n-1)-element meet-semilattices.
Meet-semilattices are hereditary under deleting a maximal element,
which admits canonical augmentation (McKay 1998): extend by a new
maximal element whose strict down-set is an ideal D such that D
intersect down(x) has a greatest element for every x (the meet
condition), and accept a child iff its new element lies in the
automorphism orbit of its first maximal element in canonical order.
That order refines (#below, #above), so a new element with more
elements below it than another maximal element is rejected before any
canonical form.  Isomorphic children of one parent are deduplicated by
key.  The tests check it against a slow poset-filter oracle.

Internal representation: a poset with natural labeling (i < j in the
order implies i < j as integers) stored as a tuple dwn with dwn[i] the
bitmask of {j : j <= i}, i included.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import FiniteLattice, _canonical_search, _leq_of, _orbit, parallel_map
from .errors import (
    CounterexampleFound,
    M3N5Disagreement,
    SizeCapExceeded,
    TheoremDisagreement,
    UniversalityFailure,
)
from .properties import is_semidistributive, whitman_w

DEFAULT_ENUM_CAP = 9

LATTICE_COUNTS = (1, 1, 1, 2, 5, 15, 53)  # n = 1..7, frozen from the oracle


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ups_of(dwn):
    n = len(dwn)
    ups = [1 << i for i in range(n)]
    for j in range(n):
        for i in _bits(dwn[j]):
            ups[i] |= 1 << j
    return ups


def poset_key(dwn):
    """Canonical key of a poset given by down-set masks (core.canonical_form)."""
    return _canonical_search(dwn)[0]


def _valid_ideals(dwn):
    """Ideals D usable as the strict down-set of a new maximal element
    so that the extension stays a meet-semilattice.

    The down-sets grow by extension in index order: natural labelling
    puts element i's strict down-set below i, so it is decided when i
    is reached.
    """
    downsets = [0]
    for i, mask in enumerate(dwn):
        below = mask ^ 1 << i
        downsets += [D | 1 << i for D in downsets if D & below == below]
    out = []
    for D in sorted(downsets):
        for x in range(len(dwn)):
            if (D >> x) & 1:
                continue
            B = D & dwn[x]  # common lower bounds of x and the new element
            if B == 0 or B & ~dwn[B.bit_length() - 1]:
                break  # none, or no greatest one
        else:
            out.append(D)
    return out


_SEMILATTICE_LEVELS = {0: [()]}


def _semilattices(k):
    """Canonical meet-semilattices of size k, sorted by canonical key."""
    if k in _SEMILATTICE_LEVELS:
        return _SEMILATTICE_LEVELS[k]
    collected = []
    for parent in _semilattices(k - 1):
        ups = _ups_of(parent)
        below = {i: m.bit_count() - 1 for i, m in enumerate(parent) if ups[i] == 1 << i}
        local = {}
        for D in _valid_ideals(parent):
            maximal = {i for i in below if not D >> i & 1}
            if any(below[i] < D.bit_count() for i in maximal):
                continue  # outside mstar's orbit (module docstring)
            child = parent + (D | (1 << (k - 1)),)
            ckey, cperm, autos = _canonical_search(child)
            if ckey in local:
                continue
            mstar = next(e for e in cperm if e in maximal or e == k - 1)
            if k - 1 in _orbit(mstar, autos):
                local[ckey] = child
        collected.extend(local.items())
    collected.sort()
    _SEMILATTICE_LEVELS[k] = [child for _, child in collected]
    return _SEMILATTICE_LEVELS[k]


def _lattice_from_dwn(dwn):
    """The lattice whose element j has down-set mask dwn[j], plus a top
    whose down-set is everything."""
    masks = list(dwn) + [(1 << (len(dwn) + 1)) - 1]
    return FiniteLattice(np.ascontiguousarray(_leq_of(masks).T), _validated=True)


def all_lattices(n, cap=DEFAULT_ENUM_CAP):
    """All isomorphism classes of n-element lattices, deterministically
    ordered by canonical key of the top-removed semilattice."""
    if not 1 <= n <= cap:
        raise SizeCapExceeded(f"n={n} outside 1..{cap}")
    return [_lattice_from_dwn(s) for s in _semilattices(n - 1)]


def iter_lattices(max_n, cap=DEFAULT_ENUM_CAP):
    for n in range(1, max_n + 1):
        yield from all_lattices(n, cap=cap)


def _property_flags(payload):
    from .properties import check_property

    L, names = payload
    return all(check_property(L, name).verdict for name in names)


def filter_lattices(lattices, properties, jobs=1):
    """Property-filter a lattice list, optionally across processes;
    output order is the input order either way."""
    lattices = list(lattices)
    if not properties:
        return lattices
    payloads = [(L, tuple(properties)) for L in lattices]
    flags = parallel_map(_property_flags, payloads, jobs, chunksize=16)
    return [L for L, flag in zip(lattices, flags) if flag]


# -- conjecture 1 finite shadow -----------------------------------------


@dataclass(frozen=True)
class Pocket:
    zero: int
    one: int
    chain_a: tuple
    chain_b: tuple

    def to_json_dict(self):
        return {
            "zero": self.zero,
            "one": self.one,
            "A": list(self.chain_a),
            "B": list(self.chain_b),
        }


def pocket_decomposition(L):
    """Split a width-two lattice into the conjectured chain of pockets.

    A pocket is an interval [zero, one] whose interior is two disjoint
    chains A and B with every cross pair incomparable, meeting at zero
    and joining at one.  Pocket boundaries are the inclusion-minimal
    intervals [meet, join] of incomparable pairs: a pair inside a pocket
    reproduces that pocket's boundary by the law, while pairs reaching
    across pockets span a strictly larger interval.  Chain stretches
    between pockets become bare pockets with empty A and B.
    Consecutive pockets may share exactly {next zero, previous one}, a
    vertical edge or a single point; all other pocket pairs must be
    disjoint.  Returns (pockets, failures) with concrete witnesses.
    """
    n = L.n
    failures = []
    bounds = {
        (L.meet(x, y), L.join(x, y))
        for x in range(n)
        for y in range(x + 1, n)
        if L.incomparable(x, y)
    }
    minimal = sorted(
        (
            (m, j)
            for m, j in bounds
            if not any(
                (m2, j2) != (m, j) and L.le(m, m2) and L.le(j2, j)
                for m2, j2 in bounds
            )
        ),
        key=lambda mj: (L.heights[mj[0]], mj),
    )
    pockets = []
    for m, j in minimal:
        interior = [
            z for z in range(n) if z not in (m, j) and L.le(m, z) and L.le(z, j)
        ]
        side_a = [
            z
            for z in interior
            if z == interior[0] or not L.incomparable(z, interior[0])
        ]
        side_b = [z for z in interior if z not in side_a]
        ok = True
        for side in (side_a, side_b):
            for x in side:
                for y in side:
                    if L.incomparable(x, y):
                        failures.append(("side-not-a-chain", m, j, x, y))
                        ok = False
        for x in side_a:
            for y in side_b:
                if not L.incomparable(x, y):
                    failures.append(("cross-pair-comparable", m, j, x, y))
                    ok = False
                elif L.meet(x, y) != m or L.join(x, y) != j:
                    failures.append(("pocket-law", m, j, x, y))
                    ok = False
        if not side_b:
            failures.append(("one-sided-pocket", m, j))
            ok = False
        if ok:
            pockets.append(
                Pocket(m, j, tuple(sorted(side_a)), tuple(sorted(side_b)))
            )

    spine = []

    def add_links(lo, hi):
        """Chain stretch from lo up to hi becomes bare pockets."""
        if lo == hi:
            return
        stretch = sorted(
            (z for z in range(n) if L.le(lo, z) and L.le(z, hi)),
            key=lambda z: L.heights[z],
        )
        for a, b in zip(stretch, stretch[1:]):
            if not L.le(a, b):
                failures.append(("gap-not-a-chain", a, b))
                return
            spine.append(Pocket(a, b, (), ()))

    previous = None
    for pocket in pockets:
        if previous is None:
            add_links(L.bottom, pocket.zero)
        elif L.le(previous.one, pocket.zero):
            add_links(previous.one, pocket.zero)
        else:
            shared = _members(previous) & _members(pocket)
            if shared != {previous.one, pocket.zero}:
                failures.append(
                    ("bad-pocket-overlap", previous.one, pocket.zero, tuple(sorted(shared)))
                )
            elif pocket.zero != previous.one:
                between = [
                    z
                    for z in range(n)
                    if L.le(pocket.zero, z)
                    and L.le(z, previous.one)
                    and z not in shared
                ]
                if between:
                    failures.append(
                        ("overlap-not-an-edge", pocket.zero, previous.one, tuple(between))
                    )
        spine.append(pocket)
        previous = pocket
    add_links(previous.one if previous else L.bottom, L.top)

    for i, p in enumerate(spine):
        for q in spine[i + 2 :]:
            shared = _members(p) & _members(q)
            if shared:
                failures.append(
                    ("nonconsecutive-overlap", p.zero, q.zero, tuple(sorted(shared)))
                )

    covered = set()
    for pocket in spine:
        covered.update(_members(pocket))
    missing = sorted(set(range(n)) - covered)
    if missing:
        failures.append(("uncovered-elements", tuple(missing)))
    return spine, failures


def _members(pocket):
    return {pocket.zero, pocket.one} | set(pocket.chain_a) | set(pocket.chain_b)


@dataclass
class ConjectureReport:
    scanned: int = 0
    width2_w: int = 0
    sd_failures: list = field(default_factory=list)
    decomposition_failures: list = field(default_factory=list)
    entries: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "scanned": self.scanned,
            "width2_whitman": self.width2_w,
            "sd_failures": [list(map(str, w)) for w in self.sd_failures],
            "decomposition_failures": [
                list(map(str, w)) for w in self.decomposition_failures
            ],
            "entries": self.entries,
        }


def conjecture1_scan(max_n, cap=DEFAULT_ENUM_CAP):
    """Finite shadow of the width-two conjecture: every width-two
    lattice satisfying (W) is reported with its semidistributivity
    status and pocket decomposition.  The scan never decides the
    conjecture; it only surfaces witnesses."""
    report = ConjectureReport()
    for L in iter_lattices(max_n, cap=cap):
        report.scanned += 1
        if L.width() != 2 or not whitman_w(L).verdict:
            continue
        report.width2_w += 1
        sd = is_semidistributive(L, "both")
        if not sd.verdict:
            report.sd_failures.append((L, sd.witness))
        pockets, failures = pocket_decomposition(L)
        for failure in failures:
            report.decomposition_failures.append((L, failure))
        report.entries.append(
            {
                "n": L.n,
                "covers": sorted(L.covers),
                "semidistributive": sd.verdict,
                "pockets": [p.to_json_dict() for p in pockets],
                "pocket_failures": [list(map(str, f)) for f in failures],
            }
        )
    return report


# -- umbrella verification driver ---------------------------------------


def verify_corpus(max_n=9, jobs=1):
    """Run every exhaustive acceptance check over one pass of the stream
    and aggregate pass/fail verdicts with witnesses.  Each lattice with
    n <= min(max_n, 9) is built once and goes to every section whose size
    limit it meets; one whose theorem check disagrees is counted there
    and skips the sections gated on its verdict."""
    from .classifier import check_theorem, constructive_iso_2xc, verify_prop_width3
    from .jonsson import d_sequence
    from .properties import m3n5_crosscheck
    from .subalgebra import gadget_census, verify_universal

    top = min(max_n, 9)
    lattices = list(iter_lattices(top))
    counts = [0] * max(min(max_n, 7), 0)
    verdicts = []
    m3n5 = theorem = universality = quadrant = 0  # failing lattices per section
    width2 = 0
    for L in lattices:
        if L.n <= 7:
            counts[L.n - 1] += 1
        if L.n <= 8:
            try:
                m3n5_crosscheck(L)
            except M3N5Disagreement:
                m3n5 += 1
        if L.n <= 6:
            try:
                verify_universal(L)
            except UniversalityFailure:
                universality += 1
        verdict = None
        try:
            verdict = check_theorem(L)
        except TheoremDisagreement:
            theorem += 1
        verdicts.append(verdict)
        if verdict is None:
            continue
        if verdict.qualifies and L.width() == 2:
            width2 += 1
            if constructive_iso_2xc(L) is None:
                raise CounterexampleFound("prop_width2: no constructive map onto 2 x C", L)
            if verdict.blocks[0].tag != "TwoByChain":
                raise CounterexampleFound("prop_width2: not isomorphic to 2 x C", L)
        if L.n <= 8 and verdict.distributive and d_sequence(L).quadrant != "(=,=)":
            quadrant += 1

    expected = list(LATTICE_COUNTS[: len(counts)])
    width3 = verify_prop_width3(lattices, verdicts)
    census_top = min(max_n, 8)
    census = gadget_census((L for L in lattices if L.n <= census_top), jobs=jobs)
    report = {
        "counts": {"computed": counts, "expected": expected, "pass": counts == expected},
        "m3n5": {"max_n": min(max_n, 8), "disagreements": m3n5, "pass": m3n5 == 0},
        "prop_width3": {
            "scanned": width3.scanned,
            "qualifying": width3.qualifying,
            "pass": width3.qualifying == int(max_n >= 8),  # the cube has eight elements
        },
        # 2 x C_k for k >= 2
        "prop_width2": {"instances": width2, "pass": width2 == max(top // 2 - 1, 0)},
        "gj_theorem": {"max_n": top, "pass": theorem == 0},
        "gadget_census": {
            "gadgets": census.gadgets,
            "iso_classes": len(census.iso_classes),
            "fingerprints": len(census.fingerprints),
            "pass": len(census.iso_classes) <= 6 and len(census.fingerprints) <= 7,
        },
        "universality": {"max_n": min(max_n, 6), "pass": universality == 0},
        "distributive_quadrant": {"pass": quadrant == 0},
    }
    report["pass"] = all(section["pass"] for section in report.values())
    return report
