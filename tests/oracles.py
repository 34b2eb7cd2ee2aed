"""Slow reference implementations that the library's fast paths are
checked against: dense bool-matmul closure and covers, the pairwise
table build, the loop checkers and forbidden-sublattice search, the
poset-filter lattice census and the all-subsets join-cover and D-layer
definitions.  Each returns what the
library function returns, witness and error pair included.
"""

from itertools import combinations

import numpy as np

from latkit.enumeration import _bits, _ups_of, poset_key
from latkit.errors import NotALattice, NotAPartialOrder
from latkit.jonsson import refines
from latkit.properties import PropertyReport


def transitive_closure(rel):
    """Reflexive-transitive closure by repeated squaring; rejects cycles."""
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


def covers(leq):
    """Cover pairs (lo, hi), sorted: strict pairs with nothing between."""
    lt = leq & ~np.eye(leq.shape[0], dtype=bool)
    reduced = lt & ~np.matmul(lt, lt)
    return tuple((int(i), int(j)) for i, j in zip(*np.nonzero(reduced)))


def build_tables(leq):
    """Join and meet tables by looking up each pair's common up-set and
    down-set among the rows and columns of leq."""
    n = leq.shape[0]
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


def is_modular(L):
    n, leq = L.n, L.leq
    join, meet = L.join_table, L.meet_table
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if leq[a, c] and join[a, meet[b, c]] != meet[join[a, b], c]:
                    return PropertyReport("modular", False, (a, b, c))
    return PropertyReport("modular", True)


def is_distributive(L):
    n = L.n
    join, meet = L.join_table, L.meet_table
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a, join[b, c]] != join[meet[a, b], meet[a, c]]:
                    return PropertyReport("distributive", False, (a, b, c))
    return PropertyReport("distributive", True)


def is_semidistributive(L, side="both"):
    n = L.n
    join, meet = L.join_table, L.meet_table
    name = "sd" if side == "both" else f"sd-{side}"
    if side in ("join", "both"):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    ab = join[a, b]
                    if ab == join[a, c] and ab != join[a, meet[b, c]]:
                        return PropertyReport(name, False, (a, b, c))
    if side in ("meet", "both"):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    ab = meet[a, b]
                    if ab == meet[a, c] and ab != meet[a, join[b, c]]:
                        return PropertyReport(name, False, (a, b, c))
    return PropertyReport(name, True)


def whitman_w(L):
    """Quadruple scan with early exit; quadratic prefilter on (x, y)."""
    n, leq = L.n, L.leq
    join, meet = L.join_table, L.meet_table
    for x in range(n):
        for y in range(x + 1, n):
            xy = meet[x, y]
            for z in range(n):
                if xy == meet[xy, z]:
                    continue  # xy <= z settles every (z, w) and (w, z)
                for w in range(z + 1, n):
                    if xy != meet[xy, w]:
                        zw = join[z, w]
                        if leq[xy, zw] and not leq[x, zw] and not leq[y, zw]:
                            return PropertyReport("whitman", False, (x, y, z, w))
    return PropertyReport("whitman", True)


def find_forbidden(L, pattern):
    """Least M3 or N5 embedding by looping over (x, y, z) in C order."""
    n = L.n
    join, meet = L.join_table, L.meet_table
    inc = L.incomparable
    if pattern == "N5":
        for x in range(n):
            for y in range(n):
                if inc(x, y):
                    for z in range(n):
                        if (
                            z != y
                            and L.leq[y, z]
                            and inc(x, z)
                            and join[x, y] == join[x, z]
                            and meet[x, y] == meet[x, z]
                        ):
                            bot, top = int(meet[x, y]), int(join[x, y])
                            return {0: bot, 1: y, 2: x, 3: z, 4: top}
        return None
    for x in range(n):
        for y in range(x + 1, n):
            if inc(x, y):
                for z in range(y + 1, n):
                    if (
                        inc(x, z)
                        and inc(y, z)
                        and join[x, y] == join[x, z] == join[y, z]
                        and meet[x, y] == meet[x, z] == meet[y, z]
                    ):
                        bot, top = int(meet[x, y]), int(join[x, y])
                        return {0: bot, 1: x, 2: y, 3: z, 4: top}
    return None


def labeled_lattices(n, prune_meets=None):
    """Every natural-labeled lattice on n elements, as a tuple of down-set
    masks, by filtering natural-labeled posets.

    With prune_meets (default for n >= 8) branches that already lack a
    pairwise meet are cut early; the surviving leaves are the same.
    """
    if prune_meets is None:
        prune_meets = n >= 8
    dwn = []

    def ideals(j):
        out = []
        for D in range(1 << j):
            if any(dwn[i] & ~D for i in _bits(D)):
                continue
            if prune_meets:
                ok = True
                for x in range(j):
                    if (D >> x) & 1:
                        continue
                    B = D & dwn[x]
                    if B == 0:
                        ok = False
                        break
                    hb = B.bit_length() - 1
                    if B & ~dwn[hb]:
                        ok = False
                        break
                if not ok or (D == 0 and j > 0):
                    continue
            out.append(D)
        return out

    def is_lattice():
        ups = _ups_of(dwn)
        for i in range(n):
            for j in range(i + 1, n):
                U = ups[i] & ups[j]
                if U == 0:
                    return False
                lb = (U & -U).bit_length() - 1
                if U & ~ups[lb]:
                    return False
                B = dwn[i] & dwn[j]
                if B == 0:
                    return False
                hb = B.bit_length() - 1
                if B & ~dwn[hb]:
                    return False
        return True

    def rec(j):
        if j == n:
            if is_lattice():
                yield tuple(dwn)
            return
        for D in ideals(j):
            dwn.append(D | (1 << j))
            yield from rec(j + 1)
            dwn.pop()

    yield from rec(0)


def oracle_lattice_census(n, prune_meets=None):
    """Poset-filter oracle: the natural-labeled lattices deduped by
    canonical key.  Returns (classes, labeled)."""
    keys = set()
    labeled = 0
    for dwn in labeled_lattices(n, prune_meets):
        labeled += 1
        keys.add(poset_key(dwn))
    return len(keys), labeled


def all_nontrivial_covers(L, x):
    """Every nontrivial join cover of x, by scanning all subsets."""
    out = []
    elems = range(L.n)
    for size in range(1, L.n + 1):
        for X in combinations(elems, size):
            if any(L.le(x, y) for y in X):
                continue
            if L.le(x, L.join_all(X)):
                out.append(X)
    return out


def oracle_min_join_covers(L, x):
    """Minimal covers by the literal definition over all subsets."""
    covers = all_nontrivial_covers(L, x)
    out = []
    for X in covers:
        if all(set(X) <= set(Y) for Y in covers if refines(L, Y, X)):
            out.append(tuple(sorted(X)))
    return sorted(set(out))


def oracle_d_layers(L):
    """D-layers by the literal definition quantifying over all subsets.

    A refining cover X' <= D_k with X' << X exists iff the largest
    candidate, {d in D_k : d below some member of X}, already covers x
    (joins are monotone), so the inner existential collapses.
    """
    covers_by_elem = {x: all_nontrivial_covers(L, x) for x in range(L.n)}
    current = frozenset(x for x in range(L.n) if not covers_by_elem[x])
    layers = [current]
    while True:
        nxt = set()
        for x in range(L.n):
            ok = True
            for X in covers_by_elem[x]:
                candidates = [
                    d for d in current if any(L.le(d, y) for y in X)
                ]
                if not candidates or not L.le(x, L.join_all(candidates)):
                    ok = False
                    break
            if ok:
                nxt.add(x)
        nxt = frozenset(nxt)
        if nxt == current:
            break
        layers.append(nxt)
        current = nxt
    return layers
