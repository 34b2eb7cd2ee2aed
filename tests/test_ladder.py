import functools
from dataclasses import dataclass, replace

import pytest

from latkit import FiniteLattice, m3, two_by_chain
from latkit.errors import (
    BadAttachment,
    ChainExhausted,
    LatkitError,
    NotACover,
    NotALattice,
    NotAPartialOrder,
    SizeCapExceeded,
    SplitObstruction,
)
from latkit.ladder import (
    LadderWindow,
    _band_sizes,
    _normalize_spec,
    _split_sides,
    decorate,
    extract_ladder,
    ladder_split,
    natural_chains,
    spanning_candidate,
    window,
)
from latkit.properties import is_semidistributive, whitman_w
from latkit.serialize import to_json_dict
from latkit.subalgebra import generate_sublattice
from oracles import (
    decoration_order,
    ladder_defect,
    oracle_find_isomorphism,
    prime_interval_exclusion_scan,
    seeded_specs,
    seeded_windows,
)


def dec_elem(W, ident):
    return next(d.element for d in W.decorations if d.ident == ident)


# -- windows ------------------------------------------------------------


def test_window_shape():
    W = window(3)
    assert W.n == 14
    assert W.lattice.width() == 2
    for j in range(-3, 4):
        lo, hi = W.rail(0, j), W.rail(1, j)
        assert (lo, hi) in set(W.lattice.covers)


def test_window_one_is_two_by_three():
    assert oracle_find_isomorphism(window(1).lattice, two_by_chain(3)) is not None


@pytest.mark.parametrize("k", range(1, 7))
def test_window_is_two_by_chain_in_product_numbering(k):
    W, span = window(k), 2 * k + 1
    assert (W.lattice.leq == two_by_chain(span).leq).all()
    for i in range(2):
        for j in range(-k, k + 1):
            x = i * span + j + k
            assert W.lattice.name_of(x) == f"({i},{j})"
            assert W.coord[x] == (i, j) and W.rail(i, j) == x


def test_window_radius_validation():
    with pytest.raises(ValueError):
        window(0)


def _never(*args, **kwargs):
    raise AssertionError("reached after the size check should have failed")


def test_window_checks_the_cap_before_building(monkeypatch):
    monkeypatch.delenv("LATKIT_MAX_N", raising=False)
    monkeypatch.setattr(FiniteLattice, "from_covers", _never)
    monkeypatch.setattr("latkit.ladder.two_by_chain", _never)
    with pytest.raises(SizeCapExceeded, match="4402 elements exceeds cap 4096"):
        window(1100)


# -- decoration ----------------------------------------------------------


def test_decorate_high_rail_subdivision():
    W = decorate(window(3), {"insert": [{"between": [[1, 0], [1, 1]], "id": "x"}]})
    assert W.n == 15
    x = dec_elem(W, "x")
    L = W.lattice
    assert L.le(W.rail(1, 0), x) and L.le(x, W.rail(1, 1))


def test_decorate_low_rail_subdivision():
    W = decorate(window(3), {"insert": [{"between": [[0, 0], [0, 1]], "id": "b"}]})
    assert W.n == 15


def test_decorate_same_gap_twice_gives_diamond():
    # two parallel subdivisions of one edge resolve their bounds at the
    # old endpoints: the result is a lattice (with a width-3 bulge)
    W = decorate(
        window(2),
        {
            "insert": [
                {"between": [[0, 0], [0, 1]], "id": "p"},
                {"between": [[0, 0], [0, 1]], "id": "q"},
            ]
        },
    )
    L = W.lattice
    p, q = dec_elem(W, "p"), dec_elem(W, "q")
    assert L.join(p, q) == W.rail(0, 1)
    assert L.meet(p, q) == W.rail(0, 0)
    assert L.width() == 3


def test_decorate_rejects_non_lattice():
    # two parallel diagonals plus a point above both: the diagonals end
    # up with two minimal common upper bounds
    with pytest.raises(NotALattice) as info:
        decorate(
            window(3),
            {
                "insert": [
                    {"between": [[0, 0], [1, 1]], "id": "p"},
                    {"between": [[0, 0], [1, 1]], "id": "q"},
                    {"between": [[0, 1], [1, 2]], "id": "r", "gt": ["p", "q"]},
                ]
            },
        )
    assert info.value.kind in ("lub", "glb")


def test_decorate_rejects_bad_anchor():
    with pytest.raises(BadAttachment):
        decorate(window(2), {"insert": [{"between": [[0, 5], [0, 6]]}]})
    with pytest.raises(BadAttachment):
        decorate(window(2), {"insert": [{"between": [[1, 0], [0, 1]]}]})
    with pytest.raises(BadAttachment):
        decorate(window(2), {"insert": [{"between": [[0, 0], [0, 1]], "gt": ["ghost"]}]})


@pytest.mark.parametrize(
    "item",
    [
        {"case": True, "at": 0},
        {"case": 2.0, "at": 0},
        {"between": [[0, 0.0], [True, 0]]},
        {"between": [[0, 0], [1, 1]], "gt": [[0, 1.0]]},
        {"between": [[0, 0], [1, 1]], "lt": [[False, 1]]},
    ],
)
def test_decorate_spec_numbers_must_be_integers(item):
    # JSON true and 2.0 compare equal to 1 and 2, but a spec names
    # cases and coordinates by integers only, as lattice files do
    with pytest.raises(BadAttachment):
        decorate(window(2), {"insert": [item]})


class _NoNumpy:
    """A stand-in for numpy that fails on first use."""

    def __getattr__(self, name):
        _never()


def test_decorate_checks_the_cap_before_allocating(monkeypatch):
    W = window(2)
    monkeypatch.setenv("LATKIT_MAX_N", "20")
    monkeypatch.setattr("latkit.ladder.np", _NoNumpy())
    spec = [{"between": [[0, -2], [1, 2]]} for _ in range(11)]
    with pytest.raises(SizeCapExceeded, match="21 elements exceeds cap 20"):
        decorate(W, spec)


CHAINED = {"insert": [{"case": 1, "at": -1, "id": "c0"}, {"between": ["c0:b", [0, 3]], "id": "i1"}]}


def test_decorate_orders_anchors_through_earlier_insertions():
    # c0:b < (0,0) < (0,3): ordered through the window, not by a direct pair
    W = decorate(window(3), CHAINED)
    b, i1 = dec_elem(W, "c0:b"), dec_elem(W, "i1")
    assert W.lattice.lower_covers[i1] == (b,) and W.lattice.upper_covers[i1] == (W.rail(0, 3),)


@functools.cache
def _seeded_decorations():
    """(window, spec, normalized items, decoration_order's verdict or the
    NotAPartialOrder it raised) for 400 seeded specs."""
    cases = []
    for radius, spec in seeded_specs(400):
        W, items = window(radius), _normalize_spec(spec)
        try:
            verdict = decoration_order(W, items)
        except NotAPartialOrder as exc:
            verdict = exc
        cases.append((W, spec, items, verdict))
    return cases


def _accepted_decorations():
    for W, spec, _, verdict in _seeded_decorations():
        if isinstance(verdict, tuple) and verdict[0] is None:
            try:
                yield decorate(W, spec), verdict[1]
            except NotALattice:
                pass


def test_decorate_rejects_an_item_iff_its_anchors_are_unordered_so_far():
    rejected = 0
    for W, spec, items, verdict in _seeded_decorations():
        if isinstance(verdict, NotAPartialOrder):  # a cycle among earlier items stays one
            with pytest.raises((NotAPartialOrder, BadAttachment)):
                decorate(W, spec)
        elif verdict[0] is not None:
            with pytest.raises(BadAttachment) as info:
                decorate(W, spec)
            assert str(info.value) == f"anchors {items[verdict[0]]['between']} are not ordered"
            rejected += 1
        else:
            try:
                decorate(W, spec)
            except NotALattice:
                pass
    assert 0 < rejected < 400


def test_decorated_order_is_the_closure_of_the_direct_pairs():
    chained = 0
    for D, closure in _accepted_decorations():
        assert (D.lattice.leq == closure).all()
        chained += any(isinstance(a, str) for item in D.spec for a in item["between"])
    assert chained >= 20


def test_accepted_specs_decorate_two_columns_wider():
    for D, _ in _accepted_decorations():
        assert decorate(window(D.radius + 2), list(D.spec)).n == D.n + 8


def test_split_chained_spec():
    report = ladder_split(decorate(window(3), CHAINED))
    assert report.prop1_holds and report.stable
    assert report.prop2_band == (("c0:b", 1, 1), ("i1", 2, 2))


# -- extend_case -----------------------------------------------------------


@dataclass(frozen=True)
class ExtendCaseReport:
    case: int
    generated: tuple


def extend_case(W, a, c, b_attach):
    """Classify the gadget configuration of an attached element.

    Requires {a, c} an antichain of rail elements with a covered by a+c
    and ac covered by c along the rails, and b attached with ac covered
    by b and b < c (b strictly below c; in the third case b is not a
    lower cover of c).  Returns the case id and the generated
    sublattice of {a, b, c}.
    """
    L = W.lattice
    if a not in W.coord or c not in W.coord:
        raise BadAttachment("a and c must be rail elements")
    if not L.incomparable(a, c):
        raise BadAttachment("{a, c} must be an antichain")
    top, bot = L.join(a, c), L.meet(a, c)

    def rail_cover(x, y):
        (i1, j1), (i2, j2) = W.coord[x], W.coord[y]
        return (i1 == i2 and j2 == j1 + 1) or (j1 == j2 and i1 == 0 and i2 == 1)

    if top not in W.coord or not rail_cover(a, top):
        raise BadAttachment("a must be covered by a+c inside the ladder")
    if bot not in W.coord or not rail_cover(bot, c):
        raise BadAttachment("ac must be covered by c inside the ladder")
    b = b_attach
    if b in (a, c) or not (L.le(bot, b) and b != bot and L.le(b, c) and b != c):
        raise BadAttachment("b must lie strictly between ac and c")
    if bot not in L.lower_covers[b]:
        raise BadAttachment("ac must be covered by b")
    generated = tuple(sorted(generate_sublattice(L, {a, b, c})))
    if L.join(a, b) == top:
        case = 1
    elif L.meet(L.join(a, b), c) == b:
        case = 2
    else:
        case = 3
    return ExtendCaseReport(case=case, generated=generated)


@pytest.mark.parametrize("case,size", [(1, 5), (2, 6), (3, 7)])
def test_extend_case_classification(case, size):
    W = decorate(window(3), {"insert": [{"case": case, "at": 0}]})
    a, c = W.rail(1, 0), W.rail(0, 1)
    report = extend_case(W, a, c, dec_elem(W, "d0:b"))
    assert report.case == case
    assert len(report.generated) == size


def test_extend_case_shapes():
    # case 2 generates the two-by-three picture, case 3 the seven-element one
    W2 = decorate(window(3), {"insert": [{"case": 2, "at": 0}]})
    rep = extend_case(W2, W2.rail(1, 0), W2.rail(0, 1), dec_elem(W2, "d0:b"))
    sub, _ = W2.lattice.restrict(rep.generated)
    assert oracle_find_isomorphism(sub, two_by_chain(3)) is not None

    W3 = decorate(window(3), {"insert": [{"case": 3, "at": 0}]})
    rep = extend_case(W3, W3.rail(1, 0), W3.rail(0, 1), dec_elem(W3, "d0:b"))
    sub, _ = W3.lattice.restrict(rep.generated)
    # ac=0, a=1, b=2, a+b=3, (a+b)c=4, c=5, a+c=6
    seven = FiniteLattice.from_covers(
        7, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5), (4, 3), (3, 6), (5, 6)]
    )
    assert oracle_find_isomorphism(sub, seven) is not None


def test_extend_case_bad_attachment():
    W = decorate(window(3), {"insert": [{"case": 1, "at": 0}]})
    b = dec_elem(W, "d0:b")
    with pytest.raises(BadAttachment):
        extend_case(W, W.rail(1, 0), W.rail(0, 2), b)  # not a ladder cover
    with pytest.raises(BadAttachment):
        extend_case(W, W.rail(1, 1), W.rail(0, 1), b)  # comparable pair... a < a+c fails
    with pytest.raises(BadAttachment):
        extend_case(W, W.rail(1, 0), W.rail(0, 1), W.rail(0, 2))


# -- spanning covers ---------------------------------------------------------


def test_spanning_examples():
    W = window(3)
    assert spanning_candidate(W, W.rail(0, 0), W.rail(1, 0))


def test_spanning_requires_cover():
    W = window(2)
    with pytest.raises(NotACover):
        spanning_candidate(W, W.rail(0, 0), W.rail(1, 1))


def test_cover_checks_reject_negative_indices():
    # index -1 would wrap to the last decoration, which (0,1) covers
    W = decorate(window(2), {"insert": [{"case": 1, "at": 0}]})
    b = W.rail(0, 1)
    assert b in W.lattice.upper_covers[W.n - 1]
    for fn in (spanning_candidate, extract_ladder):
        with pytest.raises(NotACover):
            fn(W, -1, b)


def test_spanning_off_center_cover():
    W = window(3)
    # (0,2) < (1,2) is a cover but the descending side cannot reach the
    # boundary while staying parallel
    assert spanning_candidate(W, W.rail(0, 2), W.rail(1, 2))
    assert not spanning_candidate(W, W.rail(0, 3), W.rail(1, 3))


# -- ladder extraction ---------------------------------------------------------


def test_extract_natural_window():
    W = window(3)
    a, b = W.rail(0, 0), W.rail(1, 0)
    ladder = extract_ladder(W, a, b)
    assert ladder.elements == frozenset(range(W.n))
    assert (ladder.neg, ladder.pos) == (3, 3)
    for j in range(-3, 4):
        assert ladder.coords[(0, j)] == W.rail(0, j)
        assert ladder.coords[(1, j)] == W.rail(1, j)


def test_extract_redundant_chain_picks_largest_index():
    # a low-rail subdivision duplicates the join value; the subsequence
    # must pick the rail element (largest index per value)
    W = decorate(window(4), {"insert": [{"between": [[0, 0], [0, 1]], "id": "b"}]})
    a, b = W.rail(0, 0), W.rail(1, 0)
    up, _ = natural_chains(W, a, b)
    bdec = dec_elem(W, "b")
    assert bdec in up
    ladder = extract_ladder(W, a, b)
    assert bdec not in ladder.up_selected
    assert ladder.up_selected == tuple(W.rail(0, j) for j in range(1, 5))
    assert bdec not in ladder.elements


def test_extract_decorated_skips_subdivision():
    W = decorate(window(3), {"insert": [{"between": [[0, 1], [0, 2]], "id": "s"}]})
    a, b = W.rail(0, 0), W.rail(1, 0)
    ladder = extract_ladder(W, a, b)
    assert dec_elem(W, "s") not in ladder.elements
    members = sorted(ladder.elements)
    sub, subset = W.lattice.restrict(members)
    assert oracle_find_isomorphism(sub, two_by_chain(len(members) // 2)) is not None


def test_extract_requires_cover_and_chains():
    W = window(2)
    with pytest.raises(NotACover):
        extract_ladder(W, W.rail(0, 0), W.rail(1, 1))
    # a boundary cover: nothing above (0,2) is parallel to (1,2)
    with pytest.raises(ChainExhausted):
        extract_ladder(W, W.rail(0, 2), W.rail(1, 2))


def test_extract_sd_invariant_holds():
    W = window(4)
    a, b = W.rail(0, 0), W.rail(1, 0)
    ladder = extract_ladder(W, a, b)
    L = W.lattice
    for idx, elem in enumerate(ladder.up_selected, start=1):
        base = L.join(elem, ladder.coords[(0, idx - 1)])
        assert L.meet(base, b) == a  # (a'_{n} + (0,n-1)) * (1,0) = (0,0)


def test_extract_witness_set_not_a_chain():
    # M3 over the cover 0 < 1: the atoms 2 and 3 are both parallel to 1
    W = LadderWindow(1, m3(), {}, (), ())
    with pytest.raises(SplitObstruction) as info:
        extract_ladder(W, 0, 1)
    assert (info.value.reason, info.value.witness) == ("witness-set-not-a-chain", (2, 3))


def test_ladder_split_without_rails_names_the_missing_rail_element():
    # a window with no rail coordinates has no default cover and no
    # boundary column for the spanning test
    W = LadderWindow(1, two_by_chain(3), {}, (), ())
    with pytest.raises(LatkitError, match=r"\(rail, index\) = \(0, 1\)"):
        ladder_split(W, a=0, b=1)
    with pytest.raises(LatkitError, match=r"\(rail, index\) = \(0, 0\)"):
        ladder_split(W)


def test_ladder_defect_catches_a_collision():
    # two coordinates on one element break the product order's antisymmetry
    W = window(2)
    ladder = extract_ladder(W, W.rail(0, 0), W.rail(1, 0))
    assert ladder_defect(W.lattice, ladder) is None
    coords = dict(ladder.coords)
    coords[(1, 1)] = coords[(1, 0)]
    reason, _ = ladder_defect(W.lattice, replace(ladder, coords=coords))
    assert reason == "ladder-order-mismatch"


def test_ladder_defect_catches_an_unforced_meet():
    # (1,1) is not parallel to the cover's top (1,0), so it meets it in
    # (1,0), not in (0,0); dually (0,-1) joins (0,0) to (0,0)
    W = window(2)
    ladder = extract_ladder(W, W.rail(0, 0), W.rail(1, 0))
    up = replace(ladder, up_selected=(W.rail(1, 1),))
    assert ladder_defect(W.lattice, up) == ("forced-meet", W.rail(1, 1))
    down = replace(ladder, down_selected=(W.rail(0, -1),))
    assert ladder_defect(W.lattice, down) == ("forced-join", W.rail(0, -1))


def _ladders(L):
    """extract_ladder on every cover of L, skipping the covers whose
    witness chains are empty or not chains."""
    W = LadderWindow(1, L, {}, (), ())
    for a, b in L.covers:
        try:
            yield extract_ladder(W, a, b)
        except ChainExhausted:
            pass
        except SplitObstruction as exc:
            if exc.reason != "witness-set-not-a-chain":
                raise


def test_extracted_ladders_are_sublattices_on_the_stream(stream9):
    # extract_ladder's docstring proves this with neither SD nor (W)
    found = 0
    for L in stream9:
        for ladder in _ladders(L):
            assert ladder_defect(L, ladder) is None, (L, ladder)
            found += 1
    assert found == 650


def test_extracted_ladders_are_sublattices_on_decorated_windows():
    ladders = 0
    for W in seeded_windows(500):
        for ladder in _ladders(W.lattice):
            assert ladder_defect(W.lattice, ladder) is None, (W.spec, ladder)
            ladders += 1
    assert ladders == 2851


# -- splitting -------------------------------------------------------------------


def test_split_undecorated():
    W = window(3)
    report = ladder_split(W)
    assert report.side_a == tuple(range(7))
    assert report.side_b == tuple(range(7, 14))
    assert report.prop1_holds
    assert report.stable
    assert report.prop2_band == ()


def test_split_upper_subdivision():
    W = decorate(window(3), {"insert": [{"between": [[1, 0], [1, 1]], "id": "x"}]})
    report = ladder_split(W)
    x = dec_elem(W, "x")
    assert x in report.side_b
    assert report.prop1_holds
    assert report.prop2_band == (("x", 1, 1),)
    assert report.stable


def test_split_lower_subdivision():
    W = decorate(window(3), {"insert": [{"between": [[0, -1], [0, 0]], "id": "s"}]})
    report = ladder_split(W)
    assert dec_elem(W, "s") in report.side_a
    assert report.prop1_holds and report.stable


def test_split_sides_are_sublattices():
    specs = [
        {"insert": [{"case": 1, "at": 0}]},
        {"insert": [{"case": 2, "at": -1}]},
        {"insert": [{"case": 3, "at": 1}]},
        {"insert": [{"between": [[1, -2], [1, -1]], "id": "u"}]},
    ]
    for spec in specs:
        W = decorate(window(3), spec)
        report = ladder_split(W)
        L = W.lattice
        ladder = report.ladder
        highs = [ladder.coords[(1, j)] for j in range(-ladder.neg, ladder.pos + 1)]
        assert set(report.side_b) == {x for x in range(L.n) if any(L.le(h, x) for h in highs)}
        for part in (report.side_a, report.side_b):
            members = set(part)
            for x in members:
                for y in members:
                    assert L.join(x, y) in members
                    assert L.meet(x, y) in members


def test_split_rejects_whitman_violation():
    # (1,0) < x < (1,2) makes (1,0) doubly reducible, defeating (W)
    W = decorate(window(3), {"insert": [{"between": [[1, 0], [1, 2]], "id": "x"}]})
    assert W.lattice.doubly_reducibles()
    assert not whitman_w(W.lattice).verdict
    with pytest.raises(SplitObstruction) as info:
        ladder_split(W)
    assert info.value.reason == "whitman-fails"


def test_split_rejects_sd_violation():
    # a diagonal between the rails breaks join-semidistributivity
    W = decorate(window(3), {"insert": [{"between": [[0, 0], [1, 1]], "id": "d"}]})
    with pytest.raises(SplitObstruction) as info:
        ladder_split(W)
    assert info.value.reason == "semidistributivity-fails"


def test_prime_interval_exclusion_scan_clean():
    for spec in (
        {"insert": []},
        {"insert": [{"case": 2, "at": 0}]},
        {"insert": [{"between": [[0, 1], [0, 2]], "id": "s"}]},
    ):
        W = decorate(window(3), spec)
        ladder = extract_ladder(W, W.rail(0, 0), W.rail(1, 0))
        assert prime_interval_exclusion_scan(W, ladder) == []


def test_prime_interval_exclusion_scan_hit():
    # 5 sits between (0,-1) = 0 and (1,1) = 6, parallel to (1,-1) and (0,1)
    L = FiniteLattice.from_covers(
        7, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (3, 6), (4, 6), (5, 6)]
    )
    W = LadderWindow(1, L, {}, (), ())
    assert prime_interval_exclusion_scan(W, extract_ladder(W, 1, 3)) == [(5, -1, 1)]
    assert not is_semidistributive(L, "join").verdict


def test_prime_interval_hits_only_fail_sd_join(stream9):
    # ladder_split's docstring: SD-join excludes the pattern, so the
    # split runs no scan for it
    ladders = hits = 0
    windows = [LadderWindow(1, L, {}, (), ()) for L in stream9] + list(seeded_windows(500))
    for W in windows:
        for ladder in _ladders(W.lattice):
            ladders += 1
            if prime_interval_exclusion_scan(W, ladder):
                hits += 1
                assert not is_semidistributive(W.lattice, "join").verdict, (W.lattice, ladder)
    assert (ladders, hits) == (650 + 2851, 196)


def test_split_sides_join_test_fires():
    L = FiniteLattice.from_covers(
        8, [(0, 1), (0, 2), (0, 6), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5), (5, 7), (6, 7)]
    )
    W = LadderWindow(1, L, {}, (), ())
    with pytest.raises(SplitObstruction) as info:
        _split_sides(L, extract_ladder(W, 1, 3))
    assert (info.value.reason, info.value.witness) == ("side-A-not-closed", (1, 6))


def test_split_stability_checks_decoration_cover(monkeypatch):
    # d0:b < d0:x is a spanning cover off the rails; its bands are still
    # measured again in the window of radius 5
    seen = []

    def spy(W, ladder):
        seen.append(W.radius)
        return _band_sizes(W, ladder)

    monkeypatch.setattr("latkit.ladder._band_sizes", spy)
    W = decorate(window(3), {"insert": [{"case": 2, "at": 0}]})
    a, b = dec_elem(W, "d0:b"), dec_elem(W, "d0:x")
    assert (a, b) == (14, 15)
    report = ladder_split(W, a, b)
    assert seen == [3, 5]
    assert [row[0] for row in report.prop2_band] == ["d0:b", "d0:x"]


def test_split_stability_maps_by_place_not_name():
    # a decoration named like a rail coordinate must not stand in for it
    payloads = {}
    for ident in ("s", "(0,1)"):
        spec = {"insert": [{"between": [[0, -1], [0, 0]], "id": ident}]}
        W = decorate(window(3), spec)
        payloads[ident] = ladder_split(W, W.rail(0, 1), W.rail(1, 1)).to_json_dict()
    for row in payloads["(0,1)"]["prop2_band"]:
        row["decoration"] = "s"
    assert payloads["(0,1)"] == payloads["s"]


def test_split_report_json():
    W = decorate(window(3), {"insert": [{"case": 1, "at": 0}]})
    payload = ladder_split(W).to_json_dict()
    assert set(payload) == {
        "window_radius",
        "H",
        "A",
        "B",
        "prop1_holds",
        "prop1_witnesses",
        "prop2_band",
        "stable",
    }
    assert payload["window_radius"] == 3


def test_decorate_sequentially_with_cross_round_reference():
    W1 = decorate(window(3), {"insert": [{"between": [[0, 0], [0, 1]], "id": "s"}]})
    W2 = decorate(W1, {"insert": [{"between": [[1, 0], [1, 1]], "id": "t", "gt": ["s"]}]})
    L = W2.lattice
    s, t = dec_elem(W2, "s"), dec_elem(W2, "t")
    assert L.le(s, t)
    # one-pass application of the combined spec gives the same lattice
    combined = decorate(window(3), list(W2.spec))
    assert (combined.lattice.leq == L.leq).all()


def test_decorate_rejects_id_reuse_and_bad_anchor_shape():
    W1 = decorate(window(2), {"insert": [{"between": [[0, 0], [0, 1]], "id": "s"}]})
    with pytest.raises(BadAttachment):
        decorate(W1, {"insert": [{"between": [[1, 0], [1, 1]], "id": "s"}]})
    with pytest.raises(BadAttachment):
        decorate(window(2), {"insert": [{"between": [3, [0, 1]]}]})


def test_decorate_auto_ids_do_not_collide_across_rounds():
    W1 = decorate(window(2), {"insert": [{"between": [[0, 0], [0, 1]]}]})
    W2 = decorate(W1, {"insert": [{"between": [[1, 0], [1, 1]]}]})
    assert len({d.ident for d in W2.decorations}) == 2


def test_split_off_center_cover():
    W = window(4)
    a, b = W.rail(0, 1), W.rail(1, 1)
    report = ladder_split(W, a=a, b=b)
    assert set(report.side_a) | set(report.side_b) == set(range(W.n))
    assert W.rail(0, 1) in report.side_a and W.rail(1, 1) in report.side_b
    assert report.prop1_holds


def test_split_radius_one_with_decoration():
    W = decorate(window(1), {"insert": [{"between": [[0, 0], [0, 1]], "id": "s"}]})
    report = ladder_split(W)
    assert report.stable
    assert dec_elem(W, "s") in report.side_a
