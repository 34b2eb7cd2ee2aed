"""Jonsson's D-sequence: minimal join covers, the layered subsets
D_0 <= D_1 <= ..., their duals, and the four-quadrant verdict.

Definitions (standard, since the source material uses but does not
state them): a join cover of x is a nonempty X with x <= join(X); it is
nontrivial if no member is >= x.  X' refines X (X' << X) iff every
member of X' lies below some member of X.  A nontrivial join cover X is
minimal if every nontrivial join cover Y << X contains X.  Minimal
covers are antichains of join-irreducible elements, and on a finite
lattice that characterization is local: X is minimal iff dropping any
member, or replacing it by its unique lower cover, breaks the cover.

D_0 is the set of join-prime elements (x <= join(X) implies x <= some
member, over nonempty X).  By that quantifier reading the bottom
element is join prime: it lies below every member of every cover.
D_{k+1} is the set of x whose every nontrivial join cover refines to a
cover inside D_k; on a finite lattice this holds iff every minimal
nontrivial join cover of x is contained in D_k.

So the layers depend only on the join-dependency relation: p D q iff q
lies in some minimal nontrivial join cover of p (Freese, Jezek and
Nation, Free Lattices, 1995, Ch. 2).  D_0 is the set of elements with no
D-successor and D_{k+1} the set of elements whose D-successors all lie
in D_k.  For q join-irreducible with lower cover q_*,

    p D q  iff  p </= q and some meet-irreducible m has
                q_* <= m, p </= m and p <= q v m.

(=>) Let Q be a minimal cover of p containing q, y the join of Q - {q}.
Then p <= q v y, and p </= q_* v y by local minimality.  Enlarge q_* v y
to a maximal m with p </= m; then m >= q_* and p <= q v m.  Such an m
is meet-irreducible: if m = a ^ b with a, b > m, then p <= a and p <= b
by maximality, so p <= m.  And p </= q because Q is nontrivial.
(<=) {q, m} is a nontrivial join cover of p; refine it to a minimal
nontrivial join cover B.  If q is not in B, every member of B below q
lies below q_*, so join(B) <= q_* v m = m, against p <= join(B) and
p </= m.  So q is in B.

The same relation reads off two arrow tables.  For m meet-irreducible
with upper cover m^*, p up-arrow m iff p </= m and p <= m^*; for q
join-irreducible, q down-arrow m iff q </= m and q_* <= m (core.arrows).
Then

    p D q  iff  p != q and some meet-irreducible m has
                p up-arrow m and q down-arrow m.

(=>) Enlarge an m of the rule above to a maximal m' with p </= m'.  As
before m' is meet-irreducible, and p <= m'^* by maximality; q_* <= m'
and p <= q v m', so q </= m'.  And p != q as p </= q.  (<=) q </= m
gives q v m >= m^* >= p, and q_* <= m.  And p </= q: p < q would give
p <= q_* <= m.  So D is one boolean pass over p and the pairs
(q, m) with q down-arrow m, at most n |J| |M| steps, in row chunks.  In
the dual, J and M swap and so do the arrows: p up-arrow j there iff
j down-arrow p here, and q down-arrow j there iff j up-arrow q here.  So
the dual's D is the same pass with the two tables swapped, and both
sides read one arrow computation.
"""

from dataclasses import dataclass

import numpy as np

from .core import _masks, arrows, chunk_ranges


def min_join_covers(L, x):
    """All minimal nontrivial join covers of x.

    Searching antichains of join-irreducibles is complete: any
    nontrivial cover refines to a minimal one and minimal covers have
    join-irreducible members.  The antichains grow depth-first in index
    order with a running join, and one that covers x is not extended: a
    proper superset of a cover has a redundant member.  Every proper
    subset of a minimal cover fails to cover x, so the search reaches
    each minimal cover through its prefixes.
    """
    jis = [j for j in L.join_irreducibles() if not L.le(x, j)]
    lower_star = {j: L.lower_covers[j][0] for j in jis}
    covers = []

    def minimal(X):
        for drop in X:
            rest = [y for y in X if y != drop]
            if rest and L.le(x, L.join_all(rest)):
                return False  # member is redundant
            if L.le(x, L.join_all(rest + [lower_star[drop]])):
                return False  # member can be lowered
        return True

    def extend(prefix, joined, rest):
        for pos, cand in enumerate(rest):
            if all(L.incomparable(cand, p) for p in prefix):
                X, up = prefix + [cand], L.join(joined, cand)
                if not L.le(x, up):
                    extend(X, up, rest[pos + 1 :])
                elif minimal(X):
                    covers.append(tuple(X))

    extend([], L.bottom, jis)
    covers.sort()
    return covers


def _relation(J, M, up, down):
    """Bool matrix rel with rel[p, q] iff p D q, from the arrows of
    core.arrows; _relation(M, J, down, up) is D of the dual."""
    n = len(up)
    # the pairs (q, m) with q down-arrow m, grouped by q; every q has one
    # (a maximal element above q_* and not above q), so no group is
    # empty, as reduceat needs
    qi, mi = np.nonzero(down[M].T)
    starts = np.searchsorted(qi, np.arange(len(J)))
    rel = np.zeros((n, n), dtype=bool)
    for start, stop in chunk_ranges(n, max(1, len(qi))):
        rel[start:stop, J] = np.logical_or.reduceat(up[start:stop, mi], starts, axis=1)
    np.fill_diagonal(rel, False)
    return rel


@dataclass(frozen=True)
class DSequence:
    layers: tuple  # increasing tuple of sorted element tuples
    stabilized_at: int
    d_full: tuple
    dual_layers: tuple
    dual_stabilized_at: int
    dual_full: tuple
    quadrant: str  # "(=,=)" etc., ASCII "!=" for the negative case

    def to_json_dict(self):
        return {
            "layers": [list(layer) for layer in self.layers],
            "stabilized_at": self.stabilized_at,
            "d_full": list(self.d_full),
            "dual_layers": [list(layer) for layer in self.dual_layers],
            "dual_stabilized_at": self.dual_stabilized_at,
            "dual_full": list(self.dual_full),
            "quadrant": self.quadrant,
        }


def _layers(rel):
    """D_0 <= D_1 <= ... from the D relation rel, until a layer repeats.
    D_0 is never empty (it holds the bottom), so it differs from the
    empty start."""
    succ = _masks(rel)
    layers, inside = [], 0
    while True:
        nxt = sum(1 << p for p, s in enumerate(succ) if not s & ~inside)
        if nxt == inside:
            break
        layers.append(nxt)
        inside = nxt
    return [frozenset(p for p in range(len(succ)) if mask >> p & 1) for mask in layers]


def d_sequence(L):
    """Compute D(L), its dual, and the quadrant verdict."""
    J, M, up, down = arrows(L)
    layers, dual_layers = _layers(_relation(J, M, up, down)), _layers(_relation(M, J, down, up))
    full = layers[-1]
    dual_full = dual_layers[-1]
    everything = frozenset(range(L.n))
    left = "=" if full == everything else "!="
    right = "=" if dual_full == everything else "!="
    return DSequence(
        layers=tuple(tuple(sorted(layer)) for layer in layers),
        stabilized_at=len(layers) - 1,
        d_full=tuple(sorted(full)),
        dual_layers=tuple(tuple(sorted(layer)) for layer in dual_layers),
        dual_stabilized_at=len(dual_layers) - 1,
        dual_full=tuple(sorted(dual_full)),
        quadrant=f"({left},{right})",
    )

