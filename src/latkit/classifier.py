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

import numpy as np

from .catalog import cube3
from .core import canonical_key, first_hit
from .errors import InvariantViolated, PreconditionFailed, TheoremDisagreement
from .properties import _distributive, _modular


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


_cube_key = lru_cache(maxsize=1)(lambda: canonical_key(cube3()))


def classify_block(L, members):
    """Tag one linearly indecomposable block of L, given as its elements:
    the cube by its canonical key, 2 x C_m (even, width two) by its rail map."""
    if len(members) == 1:
        return "Singleton"
    sub, _ = L.restrict(members)
    if sub.n == 8 and canonical_key(sub) == _cube_key():
        return "Cube"
    if sub.n % 2 == 0 and sub.width() == 2 and _rail_map(sub) is not None:
        return "TwoByChain"
    return "Other"


def check_theorem(L):
    """Evaluate both sides of the finite structure theorem and insist
    they agree; disagreement is an implementation-bug sentinel."""
    distributive = _distributive(L)
    dr_free = not L.doubly_reducibles()
    blocks = tuple(
        TaggedBlock(members, pos, classify_block(L, members))
        for pos, members in enumerate(L.linear_decompose())
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


def _rail_map(L):
    """The isomorphism of L onto two_by_chain(n // 2) read off its rails,
    or None if L is not isomorphic to it.

    The high rail is the up-set of an atom with n/2 elements, the atom
    of larger index first: in 2 x C_{n/2} only one atom qualifies once
    n > 4, and at n = 4 either will do.  The low rail is the rest.  Each
    rail is numbered by down-set size, so f is a bijection, kept only if
    it orders L as the product order of (rail, rung) = divmod(f, n // 2):
    an order isomorphism between lattices is a lattice isomorphism.
    """
    m = L.n // 2
    ups = (L.leq[a] for a in reversed(L.upper_covers[L.bottom]))
    high = next((up for up in ups if up.sum() == m), None)
    if L.n % 2 or high is None:
        return None
    order = np.asarray(L.topo_order)
    f = np.empty(L.n, dtype=int)
    f[order[~high[order]]] = np.arange(m)
    f[order[high[order]]] = np.arange(m, L.n)
    rail, rung = divmod(f, m)
    hit = first_hit(
        L.n, L.n, lambda r: L.leq[r] != (rail[r, None] <= rail) & (rung[r, None] <= rung)
    )
    return f.tolist() if hit is None else None


def constructive_iso_2xc(L):
    """Explicit isomorphism onto 2 x C_{n/2}, by the constructive proof.

    Preconditions (checked in order): modular, width exactly two, no
    doubly reducible elements, linearly indecomposable.  The proof's
    ladder absorbs every element of L, so the rails are read off L
    itself, and the map is checked against the product order of
    2 x C_{n/2}; that check alone decides the result.  The proof's
    gadget seed is not built, as every gadget G(a; b, c) of 2 x C_k is
    2 x 3: a rail is a chain, so a lies on one rail and b < c on the
    other, and G is the three rungs of a, b and c.  So the seed is 2 x 3
    on every L that _rail_map maps, and any other L is refused anyway.

    Returns a list f with f[x] the image of x in two_by_chain(n // 2).
    """
    if not _modular(L):
        raise PreconditionFailed("modular")
    if L.width() != 2:
        raise PreconditionFailed("width-2")
    if L.doubly_reducibles():
        raise PreconditionFailed("dr-free")
    if len(L.linear_decompose()) != 1:
        raise PreconditionFailed("indecomposable")
    f = _rail_map(L)
    if f is None:
        raise InvariantViolated("lattice is not 2 x C")
    return f
