"""Slow reference implementations that the library's fast paths are
checked against: dense bool-matmul closure and covers, the pairwise
table build and the loop checkers.  Each returns what the library
function returns, witness and error pair included.
"""

import numpy as np

from latkit.errors import NotALattice, NotAPartialOrder
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
