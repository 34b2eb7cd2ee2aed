"""The Galvin-Jonsson structure theorem as a finite decision procedure,
plus the constructive width-two isomorphism.

The finite restriction: a lattice is distributive with no doubly
reducible element iff every linear-sum block is a singleton, the
eight-element cube, or 2 x C_k.  Chain summands appear as runs of
singleton blocks (blocks are never merged), which the verdict treats as
chains.  Both sides are computed independently and must agree.
"""

from dataclasses import dataclass
from functools import lru_cache

from .catalog import cube3, two_by_chain
from .core import _dwn_of, canonical_form
from .errors import (
    CounterexampleFound,
    InvariantViolated,
    NoGadget,
    PreconditionFailed,
    TheoremDisagreement,
)
from .properties import is_distributive, is_modular
from .subalgebra import generate_sublattice, iter_admissible_triples


@dataclass(frozen=True)
class TaggedBlock:
    elements: tuple
    position: int
    tag: str  # Singleton | Cube | TwoByChain | Other

    def to_json_dict(self):
        return {
            "elements": list(self.elements),
            "position": self.position,
            "tag": self.tag,
        }


@dataclass(frozen=True)
class GJVerdict:
    distributive: bool
    dr_free: bool
    blocks: tuple
    passes: bool

    def to_json_dict(self):
        return {
            "distributive": self.distributive,
            "dr_free": self.dr_free,
            "blocks": [b.to_json_dict() for b in self.blocks],
            "passes": self.passes,
        }

    @property
    def qualifies(self):
        """Indecomposable, distributive and free of doubly reducible
        elements: the hypothesis of the width-two and width-three
        propositions."""
        return self.distributive and self.dr_free and len(self.blocks) == 1


def _key(L):
    """Canonical mask key of L's order: equal keys mean isomorphic."""
    return canonical_form(_dwn_of(L.leq))[0]


# Reference keys, built once per process.  Bounded, because the key of
# 2 x C_2048 holds 4,096 masks of 4,096 bits.
_cube_key = lru_cache(maxsize=1)(lambda: _key(cube3()))
_ladder_key = lru_cache(maxsize=32)(lambda m: _key(two_by_chain(m)))


def classify_block(L, block):
    """Tag one linearly indecomposable block of L.

    Only a block that can match gets a canonical key: the cube has
    eight elements, and 2 x C_m has 2m >= 4 and width two.  The width
    gate keeps wide blocks such as M_k out of the canonical search."""
    members = block.elements
    if len(members) == 1:
        return "Singleton"
    sub, _ = L.restrict(members)
    cube = sub.n == 8
    ladder = sub.n % 2 == 0 and sub.n >= 4 and sub.width() == 2
    if cube or ladder:
        key = _key(sub)
        if cube and key == _cube_key():
            return "Cube"
        if ladder and key == _ladder_key(sub.n // 2):
            return "TwoByChain"
    return "Other"


def check_theorem(L):
    """Evaluate both sides of the finite structure theorem and insist
    they agree; disagreement is an implementation-bug sentinel."""
    distributive = is_distributive(L).verdict
    dr_free = not L.doubly_reducibles()
    blocks = tuple(
        TaggedBlock(b.elements, b.position, classify_block(L, b))
        for b in L.linear_decompose()
    )
    shape_side = all(b.tag != "Other" for b in blocks)
    law_side = distributive and dr_free
    if law_side != shape_side:
        raise TheoremDisagreement(
            f"law side {law_side} vs shape side {shape_side} on {L!r}"
        )
    return GJVerdict(
        distributive=distributive,
        dr_free=dr_free,
        blocks=blocks,
        passes=law_side,
    )


def _rails(L, members):
    """Coordinates of a subset known to be a sublattice iso to 2 x C_m.

    The high rail is the up-set (within the subset) of the atom whose
    up-set is a chain; ties (m = 2) break to the smaller index.  Returns
    (low, high) rail lists or None if the subset is not ladder-shaped.
    """
    members = sorted(members)
    size = len(members)
    if size % 2 != 0 or size < 4:
        return None
    m = size // 2
    bottom = next((x for x in members if all(L.le(x, y) for y in members)), None)
    if bottom is None:
        return None
    atoms = [
        x
        for x in members
        if x != bottom
        and L.le(bottom, x)
        and not any(
            y not in (bottom, x) and L.le(y, x) and L.le(bottom, y)
            for y in members
        )
    ]
    if len(atoms) != 2:
        return None

    def upset_chain(atom):
        ups = [y for y in members if L.le(atom, y)]
        return ups if all(
            L.le(a, b) or L.le(b, a) for a in ups for b in ups
        ) else None

    high = None
    for atom in sorted(atoms):
        ups = upset_chain(atom)
        if ups is not None and len(ups) == m:
            high = sorted(ups, key=lambda x: sum(L.le(y, x) for y in members))
            break
    if high is None:
        return None
    low = sorted(
        (x for x in members if x not in set(high)),
        key=lambda x: sum(L.le(y, x) for y in members),
    )
    if len(low) != m:
        return None
    for j in range(m):
        if not L.le(low[j], high[j]):
            return None
        if j + 1 < m:
            if not (L.le(low[j], low[j + 1]) and L.le(high[j], high[j + 1])):
                return None
            if not L.incomparable(low[j + 1], high[j]):
                return None
            if L.join(high[j], low[j + 1]) != high[j + 1]:
                return None
            if L.meet(high[j], low[j + 1]) != low[j]:
                return None
    return low, high


def constructive_iso_2xc(L):
    """Explicit isomorphism onto 2 x C_{n/2}, by the constructive proof.

    Preconditions (checked in order): modular, width exactly two, no
    doubly reducible elements, linearly indecomposable.  For |L| <= 4
    the map is direct; otherwise the lexicographically least gadget
    (necessarily iso to 2 x 3 by modularity) is checked as the seed of
    the proof's ladder.  That ladder absorbs every element of L, so the
    rails are read off L itself, and the map is then checked against the
    joins and meets of 2 x C_{n/2}.

    Returns a list f with f[x] the image of x in two_by_chain(n // 2).
    """
    if not is_modular(L).verdict:
        raise PreconditionFailed("modular")
    if L.width() != 2:
        raise PreconditionFailed("width-2")
    if L.doubly_reducibles():
        raise PreconditionFailed("dr-free")
    if len(L.linear_decompose()) != 1:
        raise PreconditionFailed("indecomposable")

    n = L.n
    if n == 4:
        mids = sorted(x for x in range(n) if x not in (L.bottom, L.top))
        low = [L.bottom, mids[0]]
        high = [mids[1], L.top]
    else:
        triple = next(iter_admissible_triples(L), None)
        if triple is None:
            raise NoGadget("no admissible triple in a lattice with > 4 elements")
        a, b, c = triple
        seed = generate_sublattice(L, {a, b, c})
        if len(seed) != 6 or _rails(L, seed) is None:
            raise InvariantViolated("gadget is not 2 x 3")
        rails = _rails(L, range(n))
        if rails is None:
            raise InvariantViolated("lattice is not 2 x C")
        low, high = rails

    m = n // 2
    f = [None] * n
    for j, x in enumerate(low):
        f[x] = j
    for j, x in enumerate(high):
        f[x] = m + j
    target = two_by_chain(m)
    if sorted(f) != list(range(n)):
        raise InvariantViolated("rail map is not a bijection")
    for x in range(n):
        for y in range(n):
            if f[L.join(x, y)] != target.join(f[x], f[y]):
                raise PreconditionFailed("join-preservation")  # unreachable
            if f[L.meet(x, y)] != target.meet(f[x], f[y]):
                raise PreconditionFailed("meet-preservation")  # unreachable
    return f


@dataclass(frozen=True)
class Width3Report:
    scanned: int
    qualifying: int


def verify_prop_width3(lattices, verdicts):
    """Indecomposable distributive DR-free width-3 lattices must all be
    the cube; raises CounterexampleFound otherwise.  verdicts are the
    check_theorem verdicts of the lattices in order; a None verdict (the
    theorem check disagreed) does not qualify."""
    lattices = list(lattices)
    qualifying = 0
    for L, verdict in zip(lattices, verdicts):
        if verdict is not None and verdict.qualifies and L.width() == 3:
            qualifying += 1
            if L.n != 8 or _key(L) != _cube_key():
                raise CounterexampleFound(
                    f"width-3 qualifier not isomorphic to the cube: {L!r}",
                    witness=L,
                )
    return Width3Report(scanned=len(lattices), qualifying=qualifying)
