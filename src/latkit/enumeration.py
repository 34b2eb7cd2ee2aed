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
from itertools import combinations

import numpy as np

from .core import FiniteLattice, _leq_of, _orbit, canonical_form, check_size
from .errors import (
    M3N5Disagreement,
    SizeCapExceeded,
    TheoremDisagreement,
    UniversalityFailure,
)
from .properties import is_semidistributive, whitman_w

DEFAULT_ENUM_CAP = 9

LATTICE_COUNTS = (1, 1, 1, 2, 5, 15, 53)  # n = 1..7, frozen from the oracle


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
        covered = 0  # elements below some other element
        for i, m in enumerate(parent):
            covered |= m ^ 1 << i
        below = {i: m.bit_count() - 1 for i, m in enumerate(parent) if not covered >> i & 1}
        local = {}
        for D in _valid_ideals(parent):
            maximal = {i for i in below if not D >> i & 1}
            if any(below[i] < D.bit_count() for i in maximal):
                continue  # outside mstar's orbit (module docstring)
            child = parent + (D | (1 << (k - 1)),)
            ckey, cperm, autos = canonical_form(child)
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
    ordered by canonical key of the top-removed semilattice; checks n
    against both caps before any work."""
    if not 1 <= n <= cap:
        raise SizeCapExceeded(f"n={n} outside 1..{cap}")
    check_size(n)
    return [_lattice_from_dwn(s) for s in _semilattices(n - 1)]


def iter_lattices(max_n, cap=DEFAULT_ENUM_CAP):
    """All lattices with 1..max_n elements, in all_lattices' order;
    checks max_n against both caps before any work.  The stream builds
    each lattice only when it is consumed, so a consumer that keeps none
    holds one at a time (`enum --max-n 11 --cap 11 --property sd` peaks
    at 47 MB)."""
    if max_n < 1:
        raise SizeCapExceeded(f"max_n={max_n} is below 1")
    if max_n > cap:
        raise SizeCapExceeded(f"{max_n} elements exceeds cap {cap}")
    check_size(max_n)
    return (_lattice_from_dwn(s) for n in range(1, max_n + 1) for s in _semilattices(n - 1))


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
    intervals [x ^ y, x v y] of incomparable pairs x, y.  Each contains a
    candidate [m, x' v y'] for upper covers x' <= x and y' <= y of
    m = x ^ y, which differ since otherwise x' <= x ^ y = m; and two
    upper covers of m are themselves incomparable with meet m.  So the
    minimal candidates are the minimal intervals.  Chain stretches
    between pockets become bare pockets with empty A and B.
    Consecutive pockets may share exactly {next zero, previous one}, a
    vertical edge or a single point; all other pocket pairs must be
    disjoint.  Returns (pockets, failures) with concrete witnesses.

    For a minimal [m, j], f its first interior element, A the interior
    elements comparable to f and B the rest: an incomparable pair inside
    has meet m and join j by minimality, so no interior element is
    comparable to both (it would be <= m, >= j, or order them).  Hence A
    is a chain, every cross pair is incomparable with meet m and join j,
    and B holds one of the two upper covers of m that span [m, j].  So a
    pocket is kept iff B is a chain.
    """
    leq, failures = L.leq, []

    def interval(lo, hi):
        return np.flatnonzero(leq[lo] & leq[:, hi]).tolist()

    def members(pocket):
        return {pocket.zero, pocket.one, *pocket.chain_a, *pocket.chain_b}

    bounds = {
        (m, L.join(x, y)) for m, ups in enumerate(L.upper_covers) for x, y in combinations(ups, 2)
    }
    minimal = sorted(
        (
            (m, j)
            for m, j in bounds
            if not any(leq[m, m2] and leq[j2, j] and (m2, j2) != (m, j) for m2, j2 in bounds)
        ),
        key=lambda mj: (L.heights[mj[0]], mj),
    )
    pockets = []
    for m, j in minimal:
        interior = [z for z in interval(m, j) if z not in (m, j)]
        first = interior[0]
        side_a = [z for z in interior if leq[z, first] or leq[first, z]]
        side_b = [z for z in interior if z not in side_a]
        split = [
            ("side-not-a-chain", m, j, x, y) for x in side_b for y in side_b if L.incomparable(x, y)
        ]
        failures.extend(split)
        if not split:
            pockets.append(Pocket(m, j, tuple(side_a), tuple(side_b)))

    spine = []

    def add_links(lo, hi):
        """Chain stretch from lo up to hi becomes bare pockets."""
        stretch = sorted(interval(lo, hi), key=lambda z: L.heights[z])
        for a, b in zip(stretch, stretch[1:]):
            if not leq[a, b]:
                failures.append(("gap-not-a-chain", a, b))
                return
            spine.append(Pocket(a, b, (), ()))

    for pocket in pockets:
        lo = spine[-1].one if spine else L.bottom  # the previous pocket's one, or bottom
        if leq[lo, pocket.zero]:
            add_links(lo, pocket.zero)
        else:
            # a pocket's members are its whole interval (links join elements
            # consecutive in height order), so the shared set holds [zero, lo]
            # and, if it is {lo, zero}, that is an edge or a point
            shared = members(spine[-1]) & members(pocket)
            if shared != {lo, pocket.zero}:
                failures.append(("bad-pocket-overlap", lo, pocket.zero, tuple(sorted(shared))))
        spine.append(pocket)
    add_links(spine[-1].one if spine else L.bottom, L.top)

    holders = [[] for _ in range(L.n)]  # the spine positions holding each element
    for i, pocket in enumerate(spine):
        for e in members(pocket):
            holders[e].append(i)
    overlaps = {}
    for e, held in enumerate(holders):
        for i, k in combinations(held, 2):
            overlaps.setdefault((i, k), []).append(e)
    for (i, k), common in sorted(overlaps.items()):
        if k > i + 1:
            failures.append(("nonconsecutive-overlap", spine[i].zero, spine[k].zero, tuple(common)))
    missing = tuple(e for e, held in enumerate(holders) if not held)
    if missing:
        failures.append(("uncovered-elements", missing))
    return spine, failures


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


def conjecture1_scan(max_n):
    """Finite shadow of the width-two conjecture: every width-two
    lattice satisfying (W) is reported with its semidistributivity
    status and pocket decomposition.  The scan never decides the
    conjecture; it only surfaces witnesses."""
    report = ConjectureReport()
    for L in iter_lattices(max_n):
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


def verify_corpus(max_n=9):
    """Run every exhaustive acceptance check over one pass of the stream
    and aggregate pass/fail verdicts with witnesses.  Each lattice with
    n <= min(max_n, 9) is built once and goes to every section whose size
    limit it meets; one whose theorem check disagrees is counted there
    and skips the sections gated on its verdict.

    The width propositions are read off the block tags.  A qualifier
    (GJVerdict.qualifies) is one block, and check_theorem agreed, so the
    block is not Other.  Width 2 rules out Singleton (width 1) and Cube
    (width 3), leaving TwoByChain, which classify_block grants only once
    _rail_map(L) succeeds: the map constructive_iso_2xc returns.  Width 3
    rules out Singleton and TwoByChain (width 2), leaving Cube, granted
    only when the block's canonical key is the cube's.  So a qualifier
    has width 2 iff its tag is TwoByChain and width 3 iff it is Cube, and
    each is the proposition's 2 x C_k or cube."""
    from .classifier import check_theorem
    from .jonsson import d_sequence
    from .properties import m3n5_crosscheck
    from .subalgebra import gadget_census, verify_universal

    top, census_top = min(max_n, 9), min(max_n, 8)
    counts = [0] * min(max_n, 7)
    m3n5 = theorem = universality = quadrant = 0  # failing lattices per section
    width2 = width3 = scanned = 0

    def checked():  # runs every section on each lattice, yields the census's ones
        nonlocal m3n5, theorem, universality, quadrant, width2, width3, scanned
        for L in iter_lattices(top):
            scanned += 1
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
            try:
                verdict = check_theorem(L)
            except TheoremDisagreement:
                theorem += 1
            else:
                if verdict.qualifies:
                    width2 += verdict.blocks[0].tag == "TwoByChain"
                    width3 += verdict.blocks[0].tag == "Cube"
                if L.n <= 8 and verdict.distributive and d_sequence(L).quadrant != "(=,=)":
                    quadrant += 1
            if L.n <= census_top:
                yield L

    census = gadget_census(checked())
    expected = list(LATTICE_COUNTS[: len(counts)])
    report = {
        "counts": {"computed": counts, "expected": expected, "pass": counts == expected},
        "m3n5": {"max_n": min(max_n, 8), "disagreements": m3n5, "pass": m3n5 == 0},
        "prop_width3": {
            "scanned": scanned,
            "qualifying": width3,
            "pass": width3 == int(max_n >= 8),  # the cube has eight elements
        },
        # 2 x C_k for k >= 2
        "prop_width2": {"instances": width2, "pass": width2 == max(top // 2 - 1, 0)},
        "gj_theorem": {"max_n": top, "pass": theorem == 0},
        "gadget_census": {
            "gadgets": census.gadgets,
            "iso_classes": len(census.iso_classes),
            "fingerprints": len(census.fingerprints),
            "pass": census.passes,
        },
        "universality": {"max_n": min(max_n, 6), "pass": universality == 0},
        "distributive_quadrant": {"pass": quadrant == 0},
    }
    report["pass"] = all(section["pass"] for section in report.values())
    return report
