"""Equational and forbidden-sublattice property checkers.

The equational laws, with + for join and juxtaposition for meet:

  modular:        a <= c  implies  a + bc = (a + b)c
  distributive:   a(b + c) = ab + ac
  SD-join:        a + b = a + c  implies  a + b = a + bc
  SD-meet:        ab = ac        implies  ab = a(b + c)
  Whitman (W):    ab <= c + d  implies  a <= c+d, b <= c+d,
                  ab <= c, or ab <= d

The semidistributive laws and (W) follow the standard formulations from
the free-lattice literature.  Witnesses are the lexicographically least
violating tuples, so reports are deterministic; (W) witnesses are
normalized to x < y and z < w (the law is symmetric in each pair).
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import arrows, chunk_ranges, first_hit
from .errors import InvariantViolated, M3N5Disagreement


@dataclass(frozen=True)
class PropertyReport:
    property: str
    verdict: bool
    witness: tuple | None = None

    def to_json_dict(self):
        return {
            "property": self.property,
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def is_modular(L):
    n, leq, join, meet = L.n, L.leq, L.join_table, L.meet_table

    def fails(ab):
        a, b = np.divmod(ab, n)
        return leq[a] & (join[a[:, None], meet[b]] != meet[join[a, b]])

    return _report("modular", n, fails, _modular(L))


def is_distributive(L):
    n, join, meet = L.n, L.join_table, L.meet_table

    def fails(ab):
        a, b = np.divmod(ab, n)
        return meet[a[:, None], join[b]] != join[meet[a, b][:, None], meet[a]]

    return _report("distributive", n, fails, _distributive(L))


def is_semidistributive(L, side="both"):
    if side not in ("join", "meet", "both"):
        raise ValueError(f"side must be join|meet|both, got {side!r}")
    n, join, meet = L.n, L.join_table, L.meet_table
    name = "sd" if side == "both" else f"sd-{side}"
    # j <-> m for j in J(L), m in M(L): j up-arrow m and j down-arrow m.  L
    # is SD-join iff each m has one such j, SD-meet iff each j has one such
    # m (A. Day, Canad. J. Math. 31, 1979; Freese-Jezek-Nation, Ch. 2)
    J, M, up, down = arrows(L)
    double = up[J] & down[M].T
    # SD-join is the law for (op, co) = (join, meet), SD-meet its dual
    laws = {"join": [(join, meet, 0)], "meet": [(meet, join, 1)]}
    laws["both"] = laws["join"] + laws["meet"]
    for op, co, axis in laws[side]:

        def fails(ab):
            a, b = np.divmod(ab, n)
            lhs = op[a, b][:, None]
            return (op[a] == lhs) & (op[a[:, None], co[b]] != lhs)

        report = _report(name, n, fails, (double.sum(axis=axis) == 1).all())
        if not report.verdict:
            return report
    return report


def _report(name, n, fails, holds):
    """holds is the verdict, read off the structure.  A failure scans
    (a, b, c) in C order for the least failing triple, its witness;
    fails(ab) gives the failing c of each flat a*n + b."""
    if holds:
        return PropertyReport(name, True)
    hit = first_hit(n * n, n, fails)
    if hit is None:
        raise InvariantViolated(f"{name} fails by structure, but the scan finds no witness")
    a, b = divmod(hit[0], n)
    return PropertyReport(name, False, (a, b, hit[1]))


def _modular(L):
    """Upper and lower semimodular, so modular at finite length (Birkhoff):
    x + y covers any two upper covers x, y of one element, and dually."""
    return all(
        op.item(x, y) in covers[x] and op.item(x, y) in covers[y]
        for op, covers in ((L.join_table, L.upper_covers), (L.meet_table, L.lower_covers))
        for c in covers
        for x, y in combinations(c, 2)
    )


def _distributive(L):
    """Modular with |J(L)| = l(L), the length heights[top].

    J(x), the join irreducibles below x, grows along each cover, as x is
    the join of J(x); so |J(x)| >= r(x) in the graded L.  A maximal chain
    through x adds |J(L)| = l(L) irreducibles in l(L) covers, one each,
    so |J(x)| = r(x).  Then r(x + y) + r(xy) = r(x) + r(y) and
    J(xy) = J(x) & J(y) give J(x + y) = J(x) | J(y): x -> J(x) embeds L
    in 2^J.  Conversely (Birkhoff) L is the down-sets of J(L).
    """
    return _modular(L) and len(L.join_irreducibles()) == L.heights[L.top]


def whitman_w(L):
    """(W) through v = z + w, in O(n^3) array work.

    E[v, u] holds iff some z < w with z + w = v have u <= neither.  (W)
    fails iff some x < y and v have xy <= v, x, y not <= v and E[v, xy];
    an O(n^2) scan of (z, w) for the least such (x, y) then gives the
    least quadruple.  Both scans run over all ordered pairs: the
    conditions are symmetric in x, y and in z, w and never hold for
    x = y or z = w, so the first hit in C order has x < y and z < w.
    """
    n, leq = L.n, L.leq
    join, meet = L.join_table, L.meet_table
    nle = ~leq  # nle[u, t]: u is not below t
    above = np.ascontiguousarray(nle.T)  # above[t, u] = nle[u, t]
    E = np.zeros((n, n), dtype=bool)
    for start, stop in chunk_ranges(n * n, n):
        z, w = np.divmod(np.arange(start, stop), n)
        keep = z < w
        if not keep.any():
            continue
        z, w = z[keep], w[keep]
        v = join[z, w]
        by_v = np.argsort(v, kind="stable")
        z, w, v = z[by_v], w[by_v], v[by_v]
        first = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
        E[v[first]] |= np.logical_or.reduceat(above[z] & above[w], first, axis=0)
    E_at = np.ascontiguousarray(E.T)  # E_at[u, v] = E[v, u]

    def fails(xy):
        x, y = np.divmod(xy, n)
        m = meet[x, y]
        return leq[m] & nle[x] & nle[y] & E_at[m]

    hit = first_hit(n * n, n, fails)
    if hit is None:
        return PropertyReport("whitman", True)
    x, y = divmod(hit[0], n)
    m = meet[x, y]

    def quad(z):
        v = join[z]
        return nle[m, z][:, None] & nle[m] & leq[m][v] & nle[x][v] & nle[y][v]

    z, w = first_hit(n, n, quad)
    return PropertyReport("whitman", False, (x, y, z, w))


def find_forbidden(L, pattern):
    """Search for a sublattice isomorphic to M3 or N5.

    A pentagon exists iff some y < z and x have x+y = x+z and xy = xz;
    such an x is parallel to y and to z.  A diamond exists iff some
    parallel x, y and some z have x+y = x+z = y+z and xy = xz = yz; such
    a z is parallel to x and to y.  The two extra elements of the
    five-tuple are forced, so one first_hit scan over rows (x, y) and
    columns z finds the least triple in C order; the diamond conditions
    are symmetric, so its least triple has x < y < z.  Returns the least
    embedding as a map from the catalog pattern's elements, or None.
    """
    if pattern not in ("M3", "N5"):
        raise ValueError(f"pattern must be M3 or N5, got {pattern!r}")
    n, leq = L.n, L.leq
    join, meet = L.join_table, L.meet_table
    z = np.arange(n)

    def fails(xy):
        x, y = np.divmod(xy, n)
        jxy, mxy = join[x, y][:, None], meet[x, y][:, None]
        hit = (join[x] == jxy) & (meet[x] == mxy)
        if pattern == "N5":
            return hit & leq[y] & (z != y[:, None])
        parallel = ~(leq[x, y] | leq[y, x])[:, None]
        return hit & parallel & (join[y] == jxy) & (meet[y] == mxy)

    hit = first_hit(n * n, n, fails)
    if hit is None:
        return None
    x, y = divmod(hit[0], n)
    first, second = (y, x) if pattern == "N5" else (x, y)  # N5's 1 < 3, like y < z
    return {0: int(meet[x, y]), 1: first, 2: second, 3: hit[1], 4: int(join[x, y])}


@dataclass(frozen=True)
class CrossCheckReport:
    modular: bool
    distributive: bool
    n5_embedding: dict | None
    m3_embedding: dict | None


def m3n5_crosscheck(L):
    """Assert: modular iff no N5 sublattice; distributive iff neither
    N5 nor M3 occurs.  A disagreement would falsify the implementation,
    never the theorem.
    """
    mod, dist = _modular(L), _distributive(L)
    emb_n5 = find_forbidden(L, "N5")
    emb_m3 = find_forbidden(L, "M3")
    if mod != (emb_n5 is None):
        raise M3N5Disagreement(f"modular={mod} but N5 embedding={emb_n5}")
    if dist != (emb_n5 is None and emb_m3 is None):
        raise M3N5Disagreement(
            f"distributive={dist} but embeddings N5={emb_n5} M3={emb_m3}"
        )
    return CrossCheckReport(mod, dist, emb_n5, emb_m3)


def _forbidden(L, pattern):
    emb = find_forbidden(L, pattern)
    witness = tuple(sorted(emb.items())) if emb else None
    return PropertyReport(f"forbidden-{pattern.lower()}", emb is not None, witness)


# Property name -> checker, in CLI order.  Each entry looks its checker
# up when called, so a rebound module function takes effect here too.
CHECKERS = {
    "modular": lambda L: is_modular(L),
    "distributive": lambda L: is_distributive(L),
    "sd-join": lambda L: is_semidistributive(L, "join"),
    "sd-meet": lambda L: is_semidistributive(L, "meet"),
    "sd": lambda L: is_semidistributive(L, "both"),
    "whitman": lambda L: whitman_w(L),
    "forbidden-m3": lambda L: _forbidden(L, "M3"),
    "forbidden-n5": lambda L: _forbidden(L, "N5"),
}


def check_property(L, name):
    """The PropertyReport of the named property (a key of CHECKERS)."""
    if name not in CHECKERS:
        raise ValueError(f"unknown property: {name!r}")
    return CHECKERS[name](L)
