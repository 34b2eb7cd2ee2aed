"""Windowed ladders, decorations, spanning covers, and ladder splitting.

A ladder window of radius k is the lattice 2 x {-k..k}: two rails of
2k+1 elements with (0,j) < (1,j).  Windows stand in for the infinite
ladder 2 x Z; every verdict that depends on the truncation is labeled
window-relative and never asserted about an infinite object.

Decorations insert finitely many new elements.  An insertion lives
strictly between two comparable anchors (rail coordinates or earlier
decorations) and may add explicit relations to earlier decorations;
the case shorthands realize the three gadget attachment
configurations at a column:

  case 1: one low-rail subdivision (the generated gadget collapses
          a+b = a+c, the pentagon picture),
  case 2: subdivisions of both rails joined by a cross edge
          (b = (a+b)c, the 2 x 3 picture),
  case 3: a two-step low-rail chain whose upper point sits under the
          high-rail subdivision ((a+b)c > b, the seven-element picture).

Ladder extraction follows the constructive proof: dedupe the witness
chain above the cover by its join with the cover, taking the largest
index per value; complete the missing rail by choosing the least-index
coatom of the prescribed interval.  The half below the cover is the
same construction on the dual lattice.  The construction proves that
the result is a sublattice ordered as 2 x [-neg, pos] (see
extract_ladder), so nothing is re-checked.  Splitting puts on the B
side the principal filter of the lowest high rung, checks the order
property, and reports the size of the generated band H_x \\ H at two
window radii, mapping the cover into the wider window by its place;
equal sizes are the finite surrogate for "H_x \\ H is finite".
"""

from dataclasses import dataclass

import numpy as np

from .catalog import two_by_chain
from .core import FiniteLattice, _check_antisymmetric, check_size, dual
from .errors import (
    BadAttachment,
    ChainExhausted,
    LatkitError,
    NotACover,
    SizeCapExceeded,
    SplitObstruction,
)
from .properties import is_semidistributive, whitman_w
from .subalgebra import generate_sublattice


@dataclass(frozen=True)
class Decoration:
    ident: str
    element: int


class LadderWindow:
    """A (possibly decorated) finite window of the infinite ladder."""

    def __init__(self, radius, lattice, coord, decorations, spec):
        self.radius = radius
        self.lattice = lattice
        self.coord = dict(coord)  # rail element -> (rail, index)
        self.rail_elem = {rc: e for e, rc in coord.items()}
        self.decorations = tuple(decorations)
        self.spec = tuple(spec)

    @property
    def n(self):
        return self.lattice.n

    def rail(self, i, j):
        if (i, j) not in self.rail_elem:
            raise LatkitError(f"window has no rail element (rail, index) = {(i, j)}")
        return self.rail_elem[(i, j)]

    def __repr__(self):
        return (
            f"LadderWindow(radius={self.radius}, n={self.n}, "
            f"decorations={len(self.decorations)})"
        )


def window(k):
    """The undecorated window 2 x {-k..k}: two_by_chain(2k + 1), whose
    element i * (2k + 1) + j + k is (i, j)."""
    if k < 1:
        raise ValueError("radius must be >= 1")
    span = 2 * k + 1
    check_size(2 * span)
    L = two_by_chain(span)
    coord = dict(enumerate((i, j) for i in range(2) for j in range(-k, k + 1)))
    names = [f"({i},{j})" for i, j in coord.values()]
    lattice = FiniteLattice(L.leq, names, _validated=True, _tables=(L.join_table, L.meet_table))
    return LadderWindow(k, lattice, coord, (), ())


def _expand_case(item, counter):
    """Case shorthands expand to between-insertions with cross edges."""
    case, at = item["case"], item.get("at")
    if type(at) is not int:
        raise BadAttachment(f"case insert needs an integer 'at': {item!r}")
    if type(case) is not int or case not in (1, 2, 3):
        raise BadAttachment(f"case must be 1, 2, or 3, got {case!r}")
    tag = item.get("id", f"d{counter}")
    low = [[0, at], [0, at + 1]]
    high = [[1, at], [1, at + 1]]
    if case == 1:
        return [{"between": low, "id": f"{tag}:b"}]
    if case == 2:
        return [
            {"between": low, "id": f"{tag}:b"},
            {"between": high, "id": f"{tag}:x", "gt": [f"{tag}:b"]},
        ]
    return [
        {"between": low, "id": f"{tag}:b"},
        {"between": [f"{tag}:b", [0, at + 1]], "id": f"{tag}:y"},
        {"between": high, "id": f"{tag}:x", "gt": [f"{tag}:y"]},
    ]


def _normalize_spec(spec, start=0):
    """Insert items of a spec: a list of them, or {"insert": [...]}.
    A key outside these shapes is refused by name, not ignored."""
    if isinstance(spec, dict):
        _refuse_unknown_keys(spec, {"insert"})
    items = spec.get("insert", []) if isinstance(spec, dict) else spec
    if not isinstance(items, (list, tuple)):
        raise BadAttachment(f"spec must list insert items: {spec!r}")
    out = []
    for counter, item in enumerate(items, start=start):
        if not isinstance(item, dict):
            raise BadAttachment(f"insert item must be an object: {item!r}")
        _refuse_unknown_keys(item, {"case", "at", "id"} if "case" in item else {"between", "id", "gt", "lt"})
        if not isinstance(item.get("id", ""), str):
            raise BadAttachment(f"decoration id must be a string: {item!r}")
        if "case" in item:
            out.extend(_expand_case(item, counter))
        elif "between" in item:
            entry = {
                "between": item["between"],
                "id": item.get("id", f"d{counter}"),
            }
            for extra in ("gt", "lt"):
                if item.get(extra):
                    entry[extra] = item[extra]
            refs = [entry["between"], entry.get("gt", ()), entry.get("lt", ())]
            if not all(isinstance(r, (list, tuple)) for r in refs) or len(entry["between"]) != 2:
                raise BadAttachment(f"malformed insert item: {item!r}")
            out.append(entry)
        else:
            raise BadAttachment(f"insert item needs 'between' or 'case': {item!r}")
    idents = [e["id"] for e in out]
    if len(set(idents)) != len(idents):
        raise BadAttachment(f"duplicate decoration ids: {idents}")
    return out


def _refuse_unknown_keys(obj, known):
    unknown = sorted(map(str, obj.keys() - known))
    if unknown:
        raise BadAttachment(f"unknown key {unknown[0]!r} in {obj!r}")


def decorate(W, spec):
    """Apply a decoration spec to a window, validating the result.

    Anchors are [rail, index] coordinates or ids of earlier insertions,
    ordered, lower first, in the order built so far, which each item
    keeps closed as it adds its relations.  Raises NotALattice (with a
    witness pair) when an insertion breaks unique bounds, and
    NotAPartialOrder (the least pair on a cycle) on cyclic gt/lt refs.
    """
    items = _normalize_spec(spec, start=len(W.decorations))
    clash = {d.ident for d in W.decorations} & {e["id"] for e in items}
    if clash:
        raise BadAttachment(f"decoration ids already in use: {sorted(clash)}")
    base = W.lattice
    n_old = base.n
    total = n_old + len(items)
    check_size(total)
    ident_to_elem = {d.ident: d.element for d in W.decorations}

    def resolve(anchor):
        if isinstance(anchor, str):
            if anchor not in ident_to_elem:
                raise BadAttachment(f"unknown decoration id {anchor!r}")
            return ident_to_elem[anchor]
        try:
            rail, index = anchor
            if type(rail) is type(index) is int:  # JSON integers, not 0.0 or true
                return W.rail_elem[(rail, index)]
        except (TypeError, ValueError, KeyError):
            pass
        raise BadAttachment(f"anchor must be [rail, index] in the window or an id: {anchor!r}")

    order = np.eye(total, dtype=bool)
    order[:n_old, :n_old] = base.leq
    decorations = list(W.decorations)
    for offset, item in enumerate(items):
        elem = n_old + offset
        lo, hi = (resolve(anchor) for anchor in item["between"])
        if lo == hi or not order[lo, hi]:
            raise BadAttachment(f"anchors {item['between']} are not ordered")
        below = order[:, [elem, lo, *map(resolve, item.get("gt", []))]].any(axis=1)
        above = order[[elem, hi, *map(resolve, item.get("lt", []))]].any(axis=0)
        order |= below[:, None] & above
        ident_to_elem[item["id"]] = elem
        decorations.append(Decoration(ident=item["id"], element=elem))
    names = [base.name_of(x) for x in range(n_old)] + [e["id"] for e in items]
    _check_antisymmetric(order)  # order is closed, so this is the whole check
    lattice = FiniteLattice(order, names=names, _validated=True)
    return LadderWindow(W.radius, lattice, W.coord, decorations, tuple(W.spec) + tuple(items))


# -- spanning covers ----------------------------------------------------


def _parallel_rows(L, a, b):
    """Rows of leq for the cover a < b: the x > a parallel to b and the
    x < b parallel to a.  Neither holds a or b, as a < b."""
    if not (0 <= a < L.n and b in L.upper_covers[a]):
        raise NotACover(f"{a} is not covered by {b}")
    leq = L.leq
    return leq[a] & ~leq[b] & ~leq[:, b], leq[:, b] & ~leq[a] & ~leq[:, a]


def spanning_candidate(W, a, b):
    """Window-relative stand-in for a spanning cover: true iff some
    boundary-column element above a is incomparable to b and some
    boundary element below b is incomparable to a (chains reaching those
    elements always exist)."""
    up, down = _parallel_rows(W.lattice, a, b)
    k = W.radius
    return any(up[W.rail(i, k)] for i in range(2)) and any(down[W.rail(i, -k)] for i in range(2))


def natural_chains(W, a, b):
    """The maximal witness chains through everything parallel to the
    cover a < b: ascending above a, descending below b."""
    L = W.lattice
    up, down = (np.flatnonzero(row).tolist() for row in _parallel_rows(L, a, b))
    up.sort(key=lambda x: L.heights[x])
    down.sort(key=lambda x: -L.heights[x])
    for chain in (up, down):
        for u, v in zip(chain, chain[1:]):
            if not (L.le(u, v) or L.le(v, u)):
                raise SplitObstruction("witness-set-not-a-chain", (u, v))
    return up, down


@dataclass(frozen=True)
class LadderCoords:
    coords: dict  # (rail, index) -> element
    neg: int
    pos: int
    up_selected: tuple = ()  # the subsequences a'_n and b'_n
    down_selected: tuple = ()

    @property
    def elements(self):
        return frozenset(self.coords.values())

    def to_json_dict(self):
        return {
            "span": [-self.neg, self.pos],
            "coords": {f"({i},{j})": e for (i, j), e in sorted(self.coords.items())},
            "up_selected": list(self.up_selected),
            "down_selected": list(self.down_selected),
        }


def _half(L, a, b, chain):
    """One half of the ladder over the cover a < b of L: the selected
    members x_1 < x_2 < ... of the ascending witness chain, the high rail
    h_n = x_n + b and the low rail l_n, for rungs 1, 2, ...

    With l_0 = a and base_n = x_n + l_{n-1}, l_n is the least-index
    coatom of [base_n, h_n].  It exists: base_n <= h_n, and base_n * b = a
    (the SD step of extract_ladder's proof, which needs no SD) while
    h_n * b = b.

    Every chain member x meets b in a, with no check: x > a and x is
    parallel to b, so x * b lies in [a, b] = {a, b}, a cover, and is not
    b, as x is not >= b.

    The half below the cover is this routine on dual(L) with the cover
    b < a there: joins and meets swap, and so do the two rails.
    """
    # x + b is monotone along the ascending chain, so equal values are
    # adjacent; the dict keeps each value's last member, in chain order
    tops = {L.join(x, b): x for x in chain}
    picked, high = list(tops.values()), list(tops)
    low = []
    for elem, top in zip(picked, high):
        base = L.join(elem, low[-1] if low else a)
        low.append(next(z for z in L.lower_covers[top] if L.le(base, z)))
    return picked, high, low


def extract_ladder(W, a, b):
    """Build ladder coordinates from a cover a < b and its natural
    witness chains.

    Follows the proof's subsequence selection (largest index per join
    value) and rail completion by least-index coatoms, on L above the
    cover and on dual(L) below it.  Decorated chain members with
    duplicate join values are skipped, so the ladder threads through
    the undecorated skeleton.

    The result is a sublattice of L ordered as 2 x [-neg, pos], by the
    construction alone: the proof uses neither SD nor (W).  In _half's
    notation, l_j = (0, j) and h_j = (1, j) for every j:
      1. l_n * b = a: l_n * b lies in [a, b] = {a, b}, as l_n >= x_n > a,
         and l_n >= b would give l_n >= x_n + b = h_n, but l_n < h_n.
      2. SD step, base_n * b = a.  For n >= 2, l_{n-1} >= a, l_{n-1} is
         not <= b (it is >= x_{n-1}) and not >= b (by 1), so l_{n-1}
         lies in the witness set, which natural_chains checked is a
         chain.  So base_n is x_n or l_{n-1}, and every chain member
         meets b in a.  For n = 1, base_1 = x_1.  Dually below.
      3. l_n + b = h_n, as l_n >= x_n.  The high rail rises strictly
         (one member per join value), so the low rail does: l_1 > a,
         and l_n = l_{n-1} would give h_n = h_{n-1}.
      4. For i > j >= 1, l_i * h_j lies in [l_j, h_j) by 1, and h_j
         covers l_j, so it is l_j; l_i + h_j = l_i + b = h_i.  For
         j = 0 this is 1 and 3.
      5. Across the cover, j < 0: the duals of 1 and 3 give a + h_j = b
         and a * h_j = l_j.  So for i >= 0, l_i * h_j = a * h_j = l_j
         (l_i * b = a) and l_i + h_j = l_i + b = h_i.
      6. For j < i <= 0 the result is the dual of 4.
    Every other pair lies on one rail, or is l_i < h_j with i <= j.  So
    the coordinates are closed under + and *, and these are the joins
    and meets of 2 x [-neg, pos].  No two coordinates share an element
    (the rails rise strictly, and l_i = h_j with i > j would make
    l_i * h_j = l_i), so meets fix the order: the product order.
    """
    L = W.lattice
    up, down = natural_chains(W, a, b)  # raises NotACover
    if not up or not down:
        raise ChainExhausted("need at least one element per witness chain")
    a_sub, up_high, up_low = _half(L, a, b, up)
    b_sub, down_low, down_high = _half(dual(L), b, a, down)

    coords = {(0, 0): a, (1, 0): b}
    rails = ((1, 1, up_high), (0, -1, down_low), (0, 1, up_low), (1, -1, down_high))
    for rail, sign, elems in rails:
        coords.update({(rail, sign * j): e for j, e in enumerate(elems, start=1)})
    return LadderCoords(
        coords=coords,
        neg=len(b_sub),
        pos=len(a_sub),
        up_selected=tuple(a_sub),
        down_selected=tuple(b_sub),
    )


@dataclass(frozen=True)
class SplitReport:
    ladder: LadderCoords
    side_a: tuple
    side_b: tuple
    prop1_holds: bool
    prop1_witnesses: tuple
    prop2_band: tuple  # (ident, size at radius, size at radius + delta)
    stable: bool
    window_radius: int  # all verdicts are relative to this truncation

    def to_json_dict(self):
        return {
            "window_radius": self.window_radius,
            "H": self.ladder.to_json_dict(),
            "A": list(self.side_a),
            "B": list(self.side_b),
            "prop1_holds": self.prop1_holds,
            "prop1_witnesses": [list(w) for w in self.prop1_witnesses],
            "prop2_band": [
                {"decoration": ident, "band": size, "band_wider": wider}
                for ident, size, wider in self.prop2_band
            ],
            "stable": self.stable,
        }


def _split_sides(L, ladder):
    """A | B with B the elements above some high rung: by the ladder's
    order (proved in extract_ladder) the principal filter of h = (1, -neg).  A filter is closed under join
    and meet, and holds no low rung, as h <= (0, j) fails in the product
    order.  A = L - B is a down-set, so closed under meet; only A's joins
    are tested."""
    in_b = L.leq[ladder.coords[(1, -ladder.neg)]]
    side_a = np.flatnonzero(~in_b)
    bad = np.argwhere(in_b[L.join_table[np.ix_(side_a, side_a)]])
    if len(bad):
        raise SplitObstruction("side-A-not-closed", tuple(int(x) for x in side_a[bad[0]]))
    return set(side_a.tolist()), set(np.flatnonzero(in_b).tolist())


def _band_sizes(W, ladder):
    """The size of the band H_x \\ H of each decoration x, H the ladder."""
    H = ladder.elements
    return {d.ident: len(generate_sublattice(W.lattice, H | {d.element}) - H) for d in W.decorations}


def ladder_split(W, a=None, b=None):
    """Partition a decorated window around a spanning cover (by default
    the central one).

    Checks the theorem's hypotheses first: lattices that fail (W) or a
    semidistributive law are rejected with SplitObstruction, as are
    inputs where the partition cannot be completed.  Property (1) is
    checked exhaustively on A and follows on B; property (2) compares
    each decoration's band H_x \\ H against the same decoration in a
    window wider by 2.

    No element x has (0,m) < x < (1,n) for some m < n with x parallel
    to (1,m) and to (0,n), so nothing scans for that pattern: SD-join,
    checked first, excludes it.  Every rung (0,j) < (1,j) is a cover of
    L (extract_ladder takes each rung's low end among the lower covers
    of its high end, and dually).  So x * (1,m) lies in
    [(0,m), (1,m)] and is not (1,m), giving x * (1,m) = (0,m); and
    x + (0,n) lies in [(0,n), (1,n)] and is not (0,n), giving
    x + (0,n) = (1,n) = (1,m) + (0,n).  SD-join then gives
    (0,n) + x * (1,m) = (1,n), that is (0,n) = (1,n), which is false.
    """
    L = W.lattice
    wider = None
    if W.decorations:  # property (2)'s window, built first so its cap check precedes the scans
        try:
            wider = decorate(window(W.radius + 2), list(W.spec))
        except SizeCapExceeded as exc:
            raise SizeCapExceeded(f"radius-{W.radius + 2} stability window: {exc}") from None
    w_report = whitman_w(L)
    if not w_report.verdict:
        raise SplitObstruction("whitman-fails", w_report.witness)
    sd_report = is_semidistributive(L, "both")
    if not sd_report.verdict:
        raise SplitObstruction("semidistributivity-fails", sd_report.witness)

    if a is None:
        a = W.rail(0, 0)
    if b is None:
        b = W.rail(1, 0)
    if not spanning_candidate(W, a, b):
        raise SplitObstruction("no-spanning-cover", (a, b))
    ladder = extract_ladder(W, a, b)
    side_a, side_b = _split_sides(L, ladder)

    # property (1) on B needs no scan: x >= (1,-neg) and x >= (0,j) give
    # x >= (0,j) v (1,-neg) = (1,j), as the ladder is a sublattice
    # ordered as 2 x [-neg, pos]
    witnesses = [
        (x, j, "A")
        for x in sorted(side_a - ladder.elements)
        for j in range(-ladder.neg, ladder.pos + 1)
        if L.le(x, ladder.coords[(1, j)]) and not L.le(x, ladder.coords[(0, j)])
    ]

    bands = _band_sizes(W, ladder)
    wider_bands = {}
    if wider is not None:
        by_id = {d.ident: d.element for d in wider.decorations}
        place = {d.element: by_id[d.ident] for d in W.decorations}
        place.update((e, wider.rail_elem[c]) for e, c in W.coord.items())
        wider_bands = _band_sizes(wider, extract_ladder(wider, place[a], place[b]))
    band_rows = tuple((ident, size, wider_bands[ident]) for ident, size in sorted(bands.items()))
    stable = all(size == wider for _, size, wider in band_rows)

    return SplitReport(
        ladder=ladder,
        side_a=tuple(sorted(side_a)),
        side_b=tuple(sorted(side_b)),
        prop1_holds=not witnesses,
        prop1_witnesses=tuple(witnesses),
        prop2_band=band_rows,
        stable=stable,
        window_radius=W.radius,
    )
