"""Finite lattice data model.

Elements are dense indices 0..n-1 and input numbering is preserved, so
error witnesses always refer to the caller's indices.  The order matrix
and both operation tables are materialized at construction; everything
downstream assumes O(1) joins and meets.  Instances are immutable after
construction (numpy arrays are frozen) and safe to share across readers.

Order work runs on bitsets: Python-int masks of up- and down-sets for
closure, tables and covers, and numpy scans in chunks of at most CHUNK
elements for the checkers, so temporaries stay bounded at any size.
"""

import os
from functools import cached_property, reduce

import numpy as np

from .errors import LatkitError, NotALattice, NotAPartialOrder, SizeCapExceeded

DEFAULT_SIZE_CAP = 4096
CHUNK = 1 << 13  # elements in one temporary array of a chunked scan


def size_cap():
    """Element cap; the LATKIT_MAX_N environment variable, if set and not
    empty, overrides it and must be an integer >= 1."""
    value = os.environ.get("LATKIT_MAX_N")
    if value and not (value.strip().isdecimal() and int(value) >= 1):
        raise LatkitError(f"LATKIT_MAX_N={value!r} is not an integer >= 1")
    return int(value) if value else DEFAULT_SIZE_CAP


def check_size(n):
    """Raise SizeCapExceeded if n elements exceed the cap."""
    if n > size_cap():
        raise SizeCapExceeded(f"{n} elements exceeds cap {size_cap()}")


class FiniteLattice:
    """A finite lattice over elements 0..n-1.

    leq[i, j] is True iff i <= j.  covers is the transitive reduction of
    leq.  join_table/meet_table hold element indices.
    """

    def __init__(self, leq, names=None, _validated=False, _tables=None):
        leq = np.asarray(leq, dtype=bool)
        n = leq.shape[0]
        check_size(n)
        self.n = n
        self.leq = leq
        self.names = tuple(names) if names is not None else None
        if self.names is not None and len(self.names) != n:
            raise ValueError("names length must equal n")
        if not leq.diagonal().all():
            raise ValueError("order matrix must be reflexive")
        if not _validated:
            _check_antisymmetric(leq)
            try:  # antisymmetric, so a cycle means a missing transitive pair
                transitive = (transitive_closure(leq) == leq).all()
            except NotAPartialOrder:
                transitive = False
            if not transitive:
                raise ValueError("order matrix must be transitive")
        if _tables is None:
            _tables = self._build_tables()
        self.join_table, self.meet_table = _tables
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
        check_size(n)
        rel = np.eye(n, dtype=bool)
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise ValueError(f"cover ({lo}, {hi}) out of range for n={n}")
            if lo == hi:
                raise NotAPartialOrder([lo])
            rel[lo, hi] = True
        return cls(transitive_closure(rel), names=names, _validated=True)

    def _build_tables(self):
        """Join and meet tables from the up- and down-set masks.

        The lub of a parallel pair is the first common upper bound in
        topo_order, accepted only if its up-set is the whole common
        up-set; the glb dually.  Comparable pairs need no search.  A pair
        without a unique bound raises NotALattice: the least such pair
        i < j, its lub checked before its glb.
        """
        n, leq = self.n, self.leq
        idx = np.arange(n, dtype=np.int32)
        join = np.where(leq, idx, idx[:, None])
        meet = np.where(leq, idx[:, None], idx)
        parallel = leq == leq.T  # and the diagonal, which i < j drops
        # the highest bit of a common up-set is its first element in
        # topo_order, that of a common down-set its last one
        order = _linear_extension(leq)
        ups, up_elem = _set_masks(leq, order[::-1])
        dns, dn_elem = _set_masks(leq.T, order)
        failed = False
        for start, stop in chunk_ranges(n, n):
            ii, jj = np.nonzero(parallel[start:stop])
            ii += start
            upper = ii < jj
            ii, jj = ii[upper], jj[upper]
            il, jl = ii.tolist(), jj.tolist()
            for table, sets, elem in ((join, ups, up_elem), (meet, dns, dn_elem)):
                common = [sets[i] & sets[j] for i, j in zip(il, jl)]
                best = [elem[c.bit_length()] for c in common]
                if [sets[b] for b in best] != common:
                    best = [b if sets[b] == c else -1 for b, c in zip(best, common)]
                    failed = True
                table[ii, jj] = table[jj, ii] = best
        if failed:
            i, j = divmod(int(((join < 0) | (meet < 0)).argmax()), n)
            raise NotALattice((i, j), "lub" if join[i, j] < 0 else "glb")
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

    def incomparable(self, x, y):
        return not (self.leq[x, y] or self.leq[y, x])

    @cached_property
    def _up_masks(self):
        """(ups, elem) of _set_masks: up-set masks with bit k for the
        k-th element of reversed topo_order, shared by covers and width.
        The table build makes its own and drops them, so a lattice that
        is only built and counted keeps no masks."""
        return _set_masks(self.leq, _linear_extension(self.leq)[::-1])

    @cached_property
    def covers(self):
        """Cover pairs (lo, hi): the transitive reduction of leq.

        The first element of x's strict up-set in topo_order covers x;
        dropping everything above it leaves the next cover first.
        """
        ups, elem = self._up_masks
        pairs = []
        for x, rest in enumerate(ups):
            rest ^= 1 << (rest.bit_length() - 1)  # x itself comes first
            while rest:
                y = elem[rest.bit_length()]
                pairs.append((x, y))
                rest &= ~ups[y]
        pairs.sort()
        return tuple(pairs)

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
    def topo_order(self):
        """Elements sorted by a linear extension of the order."""
        return tuple(_linear_extension(self.leq).tolist())

    @cached_property
    def heights(self):
        """Longest-chain height of each element, bottom at 0."""
        h = [0] * self.n
        for x in self.topo_order:
            for y in self.upper_covers[x]:
                h[y] = max(h[y], h[x] + 1)
        return tuple(h)

    def name_of(self, x):
        return self.names[x] if self.names else str(x)

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, covers={sorted(self.covers)})"

    # -- antichains and width -----------------------------------------

    def width(self):
        """Maximum antichain size, via Dilworth duality.

        A minimum chain cover has n - M chains where M is a maximum
        matching of the strict order split into a bipartite graph; the
        width equals the cover size.  Up-sets are int masks with bits in
        reversed topo_order, as in covers.  A greedy pass from the top
        matches each element to the free element above it that comes
        first in topo_order (the highest free bit), which alone is exact
        on chains.  Each element it leaves unmatched then gets one
        augmenting search (Kuhn's algorithm with a greedy start, exact by
        Berge's lemma), on an explicit stack rather than by recursion.
        The bits a failed search reached are dead: none is free, and the
        up-set of each one's owner is dead too, so no alternating path
        from them reaches a free bit.  A flip changes no dead bit's
        owner, so they stay dead and later searches skip them.
        """
        ups, elem = self._up_masks
        up = [m ^ 1 << (m.bit_length() - 1) for m in ups]  # strict up-sets
        owner = [-1] * self.n  # owner[k]: the element matched to bit k
        free = (1 << self.n) - 1
        unmatched = []
        for x in elem[1:]:  # top first
            above = up[x] & free
            if above:
                k = above.bit_length() - 1
                owner[k] = x
                free ^= 1 << k
            else:
                unmatched.append(x)
        width, dead = 0, 0
        for x in unmatched:
            grown = _augment(x, up, owner, dead)
            if grown is not None:  # no augmenting path: x stays unmatched
                width, dead = width + 1, grown
        return width

    # -- linear-sum decomposition --------------------------------------

    def linear_decompose(self):
        """Ordered blocks, as element tuples, whose linear sum reconstructs
        the lattice.  The seams are the covers lo < hi with L = down(lo) |
        up(hi): cutting anywhere else would leave a summand that is not
        closed under join or meet.  Seams form a chain, so they sort by
        |down(lo)|."""
        leq = self.leq
        below, above = leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist()
        seams = sorted((below[lo], lo, hi) for lo, hi in self.covers if below[lo] + above[hi] == self.n)
        starts = [self.bottom] + [hi for _, _, hi in seams]
        ends = [lo for _, lo, _ in seams] + [self.top]
        return [tuple(np.flatnonzero(leq[lo] & leq[:, hi]).tolist()) for lo, hi in zip(starts, ends)]

    def restrict(self, subset):
        """Induced lattice on a subset of distinct elements of 0..n-1:
        this lattice itself for all of it.  A join/meet-closed subset
        keeps this lattice's tables, renumbered; any other subset gets
        rebuilt tables, which re-verify unique bounds."""
        subset = sorted(subset)
        outside = next((x for x in subset if not 0 <= x < self.n), None)
        if outside is not None:
            raise ValueError(f"element {outside} out of range for n={self.n}")
        repeat = next((x for x, y in zip(subset, subset[1:]) if x == y), None)
        if repeat is not None:
            raise ValueError(f"element {repeat} repeats in the subset")
        if subset == list(range(self.n)):
            return self, subset
        idx = np.asarray(subset, dtype=int)
        cell = np.ix_(idx, idx)
        names = [self.name_of(x) for x in subset] if self.names else None
        position = np.full(self.n, -1, dtype=np.int32)
        position[idx] = np.arange(len(subset), dtype=np.int32)
        tables = position[self.join_table[cell]], position[self.meet_table[cell]]
        if (tables[0] < 0).any() or (tables[1] < 0).any():
            tables = None
        return FiniteLattice(self.leq[cell], names=names, _validated=True, _tables=tables), subset

    def relabel(self, perm):
        """Copy with element i renamed to perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        inv = np.argsort(perm)  # inv[perm[i]] = i
        names = [self.names[i] for i in inv] if self.names else None
        return FiniteLattice(self.leq[np.ix_(inv, inv)], names=names, _validated=True)

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


def _augment(root, up, owner, seen):
    """Flip an augmenting path from the unmatched element root, if there
    is one, and return None; else return seen grown by every bit the
    search reached.  Depth-first on an explicit stack: a frame is an
    element and the bits above it still to try, and via[d] is the bit
    that led from frame d to frame d + 1.  No bit in seen is tried."""
    stack, via = [[root, up[root]]], []
    while stack:
        frame = stack[-1]
        left = frame[1] & ~seen
        if not left:
            stack.pop()
            del via[-1:]  # the bit that led here, if any
            continue
        k = left.bit_length() - 1
        seen |= 1 << k
        frame[1] = left ^ 1 << k
        via.append(k)
        if owner[k] < 0:
            for (x, _), k in zip(stack, via):
                owner[k] = x
            return None
        stack.append([owner[k], up[owner[k]]])
    return seen


def _check_antisymmetric(leq):
    """Raise NotAPartialOrder naming the least pair i != j with i <= j <= i.
    On a transitively closed relation that is the least pair on a cycle."""
    sym = leq & leq.T
    np.fill_diagonal(sym, False)
    if sym.any():
        raise NotAPartialOrder(list(divmod(int(sym.argmax()), leq.shape[0])))


def transitive_closure(rel):
    """Reflexive-transitive closure; rejects cycles."""
    succ = [[] for _ in range(rel.shape[0])]
    for i, j in zip(*(a.tolist() for a in np.nonzero(rel))):
        succ[i].append(j)
    return _leq_of(_closure_masks(succ))


def _closure_masks(succ):
    """Up-set masks of the reflexive-transitive closure of a relation.

    succ[v] lists the elements v relates to.  Kahn's algorithm orders
    the elements topologically, skipping self-loops; in reverse order an
    element's mask is its own bit OR the masks of its successors.  Any
    element left unordered lies on or above a cycle, reported by
    NotAPartialOrder as the least element on a cycle and the least other
    element of its strongly connected component.
    """
    n = len(succ)
    indeg = [0] * n
    for v, ws in enumerate(succ):
        for w in ws:
            indeg[w] += w != v
    order = [v for v in range(n) if not indeg[v]]
    for v in order:
        for w in succ[v]:
            if w != v:
                indeg[w] -= 1
                if not indeg[w]:
                    order.append(w)
    if len(order) < n:
        raise NotAPartialOrder(_cycle_pair(succ, [v for v in range(n) if indeg[v]]))
    up = [0] * n
    for v in reversed(order):
        mask = 1 << v
        for w in succ[v]:
            mask |= up[w]
        up[v] = mask
    return up


def _cycle_pair(succ, left):
    """Least (v, w), v != w, with each reachable from the other, among
    the elements left unordered; everything they reach is left too."""
    reach = dict.fromkeys(left, 0)  # elements reachable in one or more steps
    changed = True
    while changed:
        changed = False
        for v in reversed(left):
            mask = reach[v]
            for w in succ[v]:
                if w != v:
                    mask |= reach[w] | 1 << w
            if mask != reach[v]:
                reach[v], changed = mask, True
    v = next(v for v in left if reach[v] >> v & 1)
    w = next(w for w in left if w != v and reach[v] >> w & 1 and reach[w] >> v & 1)
    return [v, w]


def _linear_extension(leq):
    """Elements by the number of elements below, ties by index."""
    return leq.sum(axis=0).argsort(kind="stable")


def _set_masks(rows, order):
    """Mask of each row with bit k for column order[k], and the list
    elem with elem[m.bit_length()] the element of mask m's highest bit."""
    return _masks(rows.take(order, axis=1)), [0] + order.tolist()


def _masks(rows):
    """Python-int bitmask of each bool row: bit k is column k."""
    width = (rows.shape[1] + 7) // 8
    raw = np.packbits(rows, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]


def _leq_of(masks):
    """Bool matrix whose row i has the bits of masks[i]."""
    n = len(masks)
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)


def chunk_ranges(rows, width):
    """(start, stop) row ranges of at most CHUNK // width rows (at least one)."""
    step = max(1, CHUNK // width)
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def first_hit(rows, width, test):
    """Least (r, c) in C order with test(r)[c] true, or None.

    test takes an index array of consecutive rows and returns a bool
    array of shape (len(rows), width).  Rows are scanned in chunks of
    about CHUNK elements, so memory stays bounded, and the scan stops at
    the first chunk with a hit.
    """
    for start, stop in chunk_ranges(rows, width):
        hit = test(np.arange(start, stop))
        if hit.any():
            r, c = divmod(int(hit.argmax()), width)
            return start + r, c
    return None


def preserves_operations(f, A, B):
    """Whether f, with f[x] in B the image of x in A, maps joins to
    joins and meets to meets; one chunked scan of both tables."""
    f = np.asarray(f)
    for start, stop in chunk_ranges(A.n, A.n):
        for a, b in ((A.join_table, B.join_table), (A.meet_table, B.meet_table)):
            if (f[a[start:stop]] != b[f[start:stop, None], f]).any():
                return False
    return True


def dual(L):
    """The order dual: joins and meets swap roles, and so do lower and
    upper covers."""
    tables = L.meet_table, L.join_table  # frozen, so safe to share, as is the view leq.T
    D = FiniteLattice(L.leq.T, names=L.names, _validated=True, _tables=tables)
    D.lower_covers, D.upper_covers = L.upper_covers, L.lower_covers
    return D


def arrows(L):
    """(J, M, up, down): the lists of join and meet irreducibles and
    the arrow relations over all elements.  up[x, i] iff x </= M[i]
    and x <= M[i]^*, the upper cover of M[i] (x up-arrow M[i]);
    down[x, k] iff J[k] </= x and J[k]_* <= x, with J[k]_* the lower
    cover of J[k] (J[k] down-arrow x)."""
    leq, J, M = L.leq, list(L.join_irreducibles()), list(L.meet_irreducibles())
    up = leq[:, [L.upper_covers[m][0] for m in M]] & ~leq[:, M]
    down = (leq[[L.lower_covers[j][0] for j in J]] & ~leq[J]).T
    return J, M, up, down


# -- isomorphism and canonical forms -----------------------------------
# One engine for every caller.  A poset is given by down-set bitmasks:
# bit j of dwn[i] is set iff j <= i, in any numbering.


def _neighbours(dwn):
    """Strict down-set and up-set lists of each element."""
    down = [[j for j in range(m.bit_length()) if m >> j & 1 and j != i] for i, m in enumerate(dwn)]
    up = [[] for _ in dwn]
    for i, lower in enumerate(down):
        for j in lower:
            up[j].append(i)
    return down, up


def refine(down, up, colors=None):
    """Stable colour refinement (1-dimensional Weisfeiler-Leman).

    Each round ranks the signatures (colour, sorted colours below,
    sorted colours above) until the partition stops splitting.  The
    start colouring defaults to (#below, #above).  Ranks are invariant
    under relabeling, so colours are comparable across the elements of
    one input.
    """
    if colors is None:
        colors = [(len(d), len(u)) for d, u in zip(down, up)]
    cells = len(set(colors))
    while True:
        at = colors.__getitem__
        sigs = colors if cells == len(colors) else [  # discrete: only rank it
            (c, tuple(sorted(map(at, d))), tuple(sorted(map(at, u))))
            for c, d, u in zip(colors, down, up)
        ]
        palette = {s: r for r, s in enumerate(sorted(set(sigs)))}
        colors = [palette[s] for s in sigs]
        if len(palette) in (cells, len(colors)):
            return colors  # no cell split, or all cells are singletons
        cells = len(palette)


def canonical_form(dwn):
    """Canonical (key, perm, autos) of the poset given by down-set masks.

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
    Every pruned leaf is then an image of a visited one, so autos (dicts
    element -> image) generate the whole automorphism group.
    """
    n = len(dwn)
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
    return best[0], tuple(best[1]), autos


def _orbit(e, autos):
    """Orbit of element e under the group generated by autos."""
    orbit, grown = set(), {e}
    while grown != orbit:
        orbit, grown = grown, grown | {g[x] for g in autos for x in grown}
    return orbit


def _dwn_of(leq):
    """Down-set masks of the columns of an order matrix."""
    return _masks(leq.T)


def canonical_key(L):
    """A relabeling-invariant canonical form of the order: the mask key
    of canonical_form, in which key[a] has bit b set iff the element at
    canonical position b lies below the one at a.  Equal keys mean
    isomorphic."""
    return canonical_form(_dwn_of(L.leq))[0]
