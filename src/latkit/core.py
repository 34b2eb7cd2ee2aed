"""Finite lattice data model.

Elements are dense indices 0..n-1 and input numbering is preserved, so
error witnesses always refer to the caller's indices.  The order matrix
and both operation tables are materialized at construction; everything
downstream assumes O(1) joins and meets.  Instances are immutable after
construction (numpy arrays are frozen) and safe to share across readers.
"""

import os
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import NotALattice, NotAPartialOrder, SizeCapExceeded

DEFAULT_SIZE_CAP = 4096


def size_cap():
    """Element cap; the LATKIT_MAX_N environment variable overrides it."""
    value = os.environ.get("LATKIT_MAX_N")
    return int(value) if value else DEFAULT_SIZE_CAP


@dataclass(frozen=True)
class Block:
    """One summand of a linear-sum decomposition."""

    elements: tuple
    position: int


class FiniteLattice:
    """A finite lattice over elements 0..n-1.

    leq[i, j] is True iff i <= j.  covers is the transitive reduction of
    leq.  join_table/meet_table hold element indices.
    """

    def __init__(self, leq, names=None, _validated=False):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        if n > size_cap():
            raise SizeCapExceeded(f"{n} elements exceeds cap {size_cap()}")
        self.n = n
        self.leq = leq
        self.names = tuple(names) if names is not None else None
        if self.names is not None and len(self.names) != n:
            raise ValueError("names length must equal n")
        if not _validated:
            self._check_partial_order()
        self.join_table, self.meet_table = self._build_tables()
        for arr in (self.leq, self.join_table, self.meet_table):
            arr.flags.writeable = False

    # -- construction -------------------------------------------------

    @classmethod
    def from_covers(cls, n, covers, names=None):
        """Build and validate a lattice from a cover list.

        The order is the reflexive-transitive closure of the pairs; the
        pairs need not be reduced (redundant pairs are absorbed).
        """
        if n < 1:
            raise ValueError("need at least one element")
        leq = np.eye(n, dtype=bool)
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise ValueError(f"cover ({lo}, {hi}) out of range for n={n}")
            if lo == hi:
                raise NotAPartialOrder([lo])
            leq[lo, hi] = True
        leq = transitive_closure(leq)
        return cls(leq, names=names)

    def _check_partial_order(self):
        leq = self.leq
        if not leq.diagonal().all():
            raise ValueError("order matrix must be reflexive")
        sym = leq & leq.T
        if sym.sum() > self.n:
            i, j = next(zip(*np.nonzero(sym & ~np.eye(self.n, dtype=bool))))
            raise NotAPartialOrder([int(i), int(j)])
        if (np.matmul(leq, leq) & ~leq).any():
            raise ValueError("order matrix must be transitive")

    def _build_tables(self):
        n, leq = self.n, self.leq
        row_of = {leq[i].tobytes(): i for i in range(n)}
        col_of = {leq[:, i].tobytes(): i for i in range(n)}
        join = np.zeros((n, n), dtype=np.int32)
        meet = np.zeros((n, n), dtype=np.int32)
        for i in range(n):
            join[i, i] = meet[i, i] = i
            for j in range(i + 1, n):
                if leq[i, j]:
                    lub, glb = j, i
                else:
                    ups = leq[i] & leq[j]
                    lub = row_of.get(ups.tobytes())
                    if lub is None:
                        raise NotALattice((i, j), "lub")
                    downs = leq[:, i] & leq[:, j]
                    glb = col_of.get(downs.tobytes())
                    if glb is None:
                        raise NotALattice((i, j), "glb")
                join[i, j] = join[j, i] = lub
                meet[i, j] = meet[j, i] = glb
        return join, meet

    # -- basic queries ------------------------------------------------

    def le(self, x, y):
        return bool(self.leq[x, y])

    def join(self, x, y):
        return int(self.join_table[x, y])

    def meet(self, x, y):
        return int(self.meet_table[x, y])

    def join_all(self, xs):
        return reduce(self.join, xs, self.bottom)

    def meet_all(self, xs):
        return reduce(self.meet, xs, self.top)

    def incomparable(self, x, y):
        return not (self.leq[x, y] or self.leq[y, x])

    @cached_property
    def covers(self):
        """Cover pairs (lo, hi): the transitive reduction of leq."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        reduced = lt & ~np.matmul(lt, lt)
        return tuple((int(i), int(j)) for i, j in zip(*np.nonzero(reduced)))

    @cached_property
    def upper_covers(self):
        ups = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            ups[lo].append(hi)
        return tuple(tuple(sorted(u)) for u in ups)

    @cached_property
    def lower_covers(self):
        downs = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            downs[hi].append(lo)
        return tuple(tuple(sorted(d)) for d in downs)

    @cached_property
    def bottom(self):
        counts = self.leq.sum(axis=1)
        return int(np.argmax(counts))  # the row that sees everything above

    @cached_property
    def top(self):
        counts = self.leq.sum(axis=0)
        return int(np.argmax(counts))

    @cached_property
    def heights(self):
        """Longest-chain height of each element, bottom at 0."""
        h = [0] * self.n
        for x in self.topo_order:
            for y in self.upper_covers[x]:
                h[y] = max(h[y], h[x] + 1)
        return tuple(h)

    @cached_property
    def topo_order(self):
        """Elements sorted by a linear extension of the order."""
        return tuple(sorted(range(self.n), key=lambda x: (int(self.leq[:, x].sum()), x)))

    def name_of(self, x):
        return self.names[x] if self.names else str(x)

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, covers={sorted(self.covers)})"

    # -- antichains and width -----------------------------------------

    def width(self):
        """Maximum antichain size, via Dilworth duality.

        A minimum chain cover has n - M chains where M is a maximum
        matching of the strict comparability relation split into a
        bipartite graph; the width equals the cover size.
        """
        n, leq = self.n, self.leq
        succ = [[j for j in range(n) if j != i and leq[i, j]] for i in range(n)]
        match_right = [-1] * n

        def try_augment(i, seen):
            for j in succ[i]:
                if not seen[j]:
                    seen[j] = True
                    if match_right[j] == -1 or try_augment(match_right[j], seen):
                        match_right[j] = i
                        return True
            return False

        matched = 0
        for i in range(n):
            if try_augment(i, [False] * n):
                matched += 1
        return n - matched

    # -- linear-sum decomposition --------------------------------------

    @cached_property
    def cut_edges(self):
        """Covers (u, v) with L = down(u) | up(v): valid linear-sum cuts.

        Cutting anywhere else would leave a summand that is not closed
        under join or meet, so these are exactly the lattice-sum seams.
        """
        n, leq = self.n, self.leq
        cuts = []
        for lo, hi in self.covers:
            if int(leq[:, lo].sum()) + int(leq[hi].sum()) == n:
                cuts.append((lo, hi))
        cuts.sort(key=lambda p: self.heights[p[0]])
        return tuple(cuts)

    def linear_decompose(self):
        """Ordered blocks whose linear sum reconstructs the lattice."""
        starts = [self.bottom] + [v for _, v in self.cut_edges]
        ends = [u for u, _ in self.cut_edges] + [self.top]
        blocks = []
        for pos, (lo, hi) in enumerate(zip(starts, ends)):
            members = tuple(
                x for x in range(self.n) if self.leq[lo, x] and self.leq[x, hi]
            )
            blocks.append(Block(elements=members, position=pos))
        return blocks

    def restrict(self, subset):
        """Induced lattice on a join/meet-closed subset; the rebuilt
        tables re-verify unique bounds."""
        subset = sorted(subset)
        idx = np.asarray(subset, dtype=int)
        sub = self.leq[np.ix_(idx, idx)].copy()
        names = [self.name_of(x) for x in subset] if self.names else None
        return FiniteLattice(sub, names=names, _validated=True), subset

    def relabel(self, perm):
        """Copy with element i renamed to perm[i]."""
        n = self.n
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation")
        out = np.zeros_like(self.leq)
        for i in range(n):
            for j in range(n):
                out[perm[i], perm[j]] = self.leq[i, j]
        names = None
        if self.names:
            names = [""] * n
            for i in range(n):
                names[perm[i]] = self.names[i]
        return FiniteLattice(out, names=names, _validated=True)

    # -- irreducibles ---------------------------------------------------

    def join_irreducibles(self):
        return tuple(x for x in range(self.n) if len(self.lower_covers[x]) == 1)

    def meet_irreducibles(self):
        return tuple(x for x in range(self.n) if len(self.upper_covers[x]) == 1)

    def doubly_reducibles(self):
        """Elements that are both a proper join and a proper meet."""
        return tuple(
            x
            for x in range(self.n)
            if len(self.lower_covers[x]) >= 2 and len(self.upper_covers[x]) >= 2
        )

    def irreducibles_and_dr(self):
        return self.join_irreducibles(), self.meet_irreducibles(), self.doubly_reducibles()


def transitive_closure(rel):
    """Reflexive-transitive closure; rejects cycles."""
    n = rel.shape[0]
    closure = rel.copy()
    np.fill_diagonal(closure, True)
    while True:
        nxt = closure | np.matmul(closure, closure)
        if (nxt == closure).all():
            break
        closure = nxt
    sym = closure & closure.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = next(zip(*np.nonzero(sym)))
        raise NotAPartialOrder([int(i), int(j)])
    return closure


def dual(L):
    """The order dual: joins and meets swap roles."""
    return FiniteLattice(L.leq.T.copy(), names=L.names, _validated=True)


# -- isomorphism and canonical forms -----------------------------------
# One engine for every caller.  A poset is given by down-set bitmasks:
# bit j of dwn[i] is set iff j <= i, in any numbering.


def _neighbours(dwn):
    """Strict down-set and up-set lists of each element."""
    n = len(dwn)
    down = [[j for j in range(n) if j != i and dwn[i] >> j & 1] for i in range(n)]
    up = [[j for j in range(n) if j != i and dwn[j] >> i & 1] for i in range(n)]
    return down, up


def refine(down, up, colors=None):
    """Stable colour refinement (1-dimensional Weisfeiler-Leman).

    Each round ranks the signatures (colour, sorted colours below,
    sorted colours above) until the partition stops splitting.  The
    start colouring defaults to (#below, #above).  Ranks are invariant
    under relabeling, so colours are comparable across the elements of
    one input, and across two orders refined as one disjoint union.
    """
    if colors is None:
        colors = [(len(d), len(u)) for d, u in zip(down, up)]
    cells = len(set(colors))
    while True:
        at = colors.__getitem__
        sigs = [
            (c, tuple(sorted(map(at, d))), tuple(sorted(map(at, u))))
            for c, d, u in zip(colors, down, up)
        ]
        palette = {s: r for r, s in enumerate(sorted(set(sigs)))}
        colors = [palette[s] for s in sigs]
        if len(palette) in (cells, len(colors)):
            return colors  # no cell split, or all cells are singletons
        cells = len(palette)


def canonical_form(dwn):
    """Canonical (key, perm) of the poset given by down-set masks.

    perm[a] is the element placed at canonical position a and key[a] is
    the mask of positions b with perm[b] <= perm[a]; equal keys mean
    isomorphic posets.  The key is the least leaf of an
    individualisation-refinement search (McKay and Piperno, Practical
    graph isomorphism II): refine, then individualise each element of
    the first non-singleton cell in turn and recurse.  A leaf whose key
    equals the best one yields an automorphism.  A sibling is skipped
    when a known automorphism fixing the individualised prefix maps an
    explored sibling to it; and a subtree whose leaf is the image of the
    best leaf is left at once, as the image of an explored subtree.
    """
    n = len(dwn)
    if n == 0:
        return (), ()
    down, up = _neighbours(dwn)
    closed = [lower + [i] for i, lower in enumerate(down)]
    best, autos = [], []  # best = [key, perm, path]

    def search(colors, path):
        if len(set(colors)) == n:
            perm = sorted(range(n), key=colors.__getitem__)
            bit = [1 << c for c in colors]
            key = tuple(sum([bit[j] for j in closed[e]]) for e in perm)
            if not best or key < best[0]:
                best[:] = key, perm, path
            elif key == best[0]:
                autos.append(dict(zip(best[1], perm)))
                # the leaf fixes its path, so the automorphism maps the
                # best path onto this one: back up to where they part
                return next(d for d, (u, v) in enumerate(zip(best[2], path)) if u != v)
            return None
        target = min(c for c in colors if colors.count(c) > 1)
        explored = []
        for v in (e for e, c in enumerate(colors) if c == target):
            if any(
                g[u] == v and all(g[p] == p for p in path)
                for g in autos
                for u in explored
            ):
                continue
            explored.append(v)
            seeded = [(c, e != v) for e, c in enumerate(colors)]
            back = search(refine(down, up, seeded), path + [v])
            if back is not None and back < len(path):
                return back
        return None

    search(refine(down, up), [])
    return best[0], tuple(best[1])


def _dwn_of(leq):
    """Down-set masks of the columns of an order matrix."""
    return [sum(1 << int(i) for i in np.flatnonzero(col)) for col in leq.T]


def canonical_key(L):
    """A relabeling-invariant canonical form of the order matrix.

    The key is the order matrix relabeled by the canonical permutation
    of canonical_form, as a tuple of row tuples: key[a][b] is True iff
    the element at canonical position a lies below the one at b.
    Equal keys mean isomorphic.
    """
    _, perm = canonical_form(_dwn_of(L.leq))
    return tuple(map(tuple, L.leq[np.ix_(perm, perm)].tolist()))


def find_isomorphism(L1, L2):
    """Lexicographically least order-isomorphism L1 -> L2, or None.

    On finite lattices an order-isomorphism is automatically a lattice
    isomorphism.  Candidate images are restricted to elements of the same
    colour, refining both orders as one disjoint union.
    """
    if L1.n != L2.n:
        return None
    n = L1.n
    union = _dwn_of(L1.leq) + [mask << n for mask in _dwn_of(L2.leq)]
    colors = refine(*_neighbours(union))
    c1, c2 = colors[:n], colors[n:]
    if sorted(c1) != sorted(c2):
        return None
    a, b = L1.leq, L2.leq
    f = [-1] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or c1[i] != c2[j]:
                continue
            if all(a[i, k] == b[j, f[k]] and a[k, i] == b[f[k], j] for k in range(i)):
                f[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
                f[i] = -1
        return False

    return f if backtrack(0) else None


def is_isomorphic(L1, L2):
    return find_isomorphism(L1, L2) is not None
