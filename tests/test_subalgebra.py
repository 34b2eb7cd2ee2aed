import random

import pytest

from latkit import (
    boolean,
    canonical_key,
    chain,
    cube3,
    dual,
    m3,
    n5,
    two_by_chain,
)
from latkit.errors import BadConfiguration, LatkitError, SplitObstruction
from latkit.ladder import extract_ladder
from latkit.subalgebra import (
    FLP_DUALITY,
    census_one,
    flp_nine,
    gadget,
    gadget_census,
    generate_sublattice,
    iter_admissible_triples,
    verify_universal,
)
from oracles import admissible_triples, seeded_windows


def naive_closure(L, seed):
    """Independent fixpoint: recompute all pairwise joins/meets each pass."""
    current = set(seed)
    while True:
        extra = {
            op(x, y)
            for x in current
            for y in current
            for op in (L.join, L.meet)
        }
        if extra <= current:
            return current
        current |= extra


def test_closure_examples():
    L = cube3()
    assert generate_sublattice(L, {5}) == {5}
    assert generate_sublattice(L, {1, 2, 4}) == set(range(8))
    assert generate_sublattice(n5(), {1, 2, 3}) == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        generate_sublattice(L, set())


def test_closure_matches_naive(stream6):
    rng = random.Random(7)
    for L in stream6:
        for _ in range(4):
            size = rng.randint(1, min(3, L.n))
            seed = set(rng.sample(range(L.n), size))
            assert generate_sublattice(L, seed) == naive_closure(L, seed)
    # ladder._band_sizes' seeds: a ladder, closed, and it plus one element
    windows = 0
    for W in seeded_windows(200, max_radius=8):
        try:
            H = extract_ladder(W, W.rail(0, 0), W.rail(1, 0)).elements
        except SplitObstruction as exc:
            assert exc.reason == "witness-set-not-a-chain"
            continue
        windows += 1
        for seed in [H] + [H | {x} for x in range(W.n) if x not in H]:
            assert generate_sublattice(W.lattice, seed) == naive_closure(W.lattice, seed)
    assert windows == 176
    B = boolean(8)  # four rounds from the atoms, the last two in three chunks each
    atoms = set(B.upper_covers[B.bottom])
    assert generate_sublattice(B, atoms) == naive_closure(B, atoms) == set(range(256))


def test_closure_operator_laws(stream6):
    from latkit import product
    from latkit.ladder import window

    rng = random.Random(9)
    ten_element = [window(2).lattice, product(chain(2), chain(5))]
    for L in rng.sample(stream6, 12) + ten_element:
        for _ in range(3):
            seed = set(rng.sample(range(L.n), min(3, L.n)))
            closed = generate_sublattice(L, seed)
            assert seed <= closed  # extensive
            assert generate_sublattice(L, closed) == closed  # idempotent
            bigger = seed | {rng.randrange(L.n)}
            assert closed <= generate_sublattice(L, bigger)  # monotone


# -- gadgets ---------------------------------------------------------------


def test_gadget_preconditions():
    L = n5()
    with pytest.raises(BadConfiguration):
        gadget(L, 1, 1, 3)  # not distinct
    with pytest.raises(BadConfiguration):
        gadget(L, 2, 3, 1)  # b not below c
    with pytest.raises(BadConfiguration):
        gadget(L, 0, 1, 3)  # a comparable to b


def test_gadget_rejects_elements_out_of_range():
    # a negative index would wrap around to element n - 1
    L = n5()
    with pytest.raises(LatkitError, match=r"element a=-1 out of range for n=5"):
        gadget(L, -1, 1, 3)
    with pytest.raises(LatkitError, match=r"element c=5 out of range for n=5"):
        gadget(L, 2, 1, 5)


def test_gadget_n5_case_one():
    report = gadget(n5(), 2, 1, 3)
    assert report.size == 5
    assert report.generated == (0, 1, 2, 3, 4)
    # a+b collapses onto a+c
    assert ("A+B", "A+C") in report.fingerprint


def test_gadget_two_by_three():
    L = two_by_chain(3)
    report = gadget(L, 3, 1, 2)
    assert report.size == 6
    assert report.iso_class == canonical_key(L)


def test_every_gadget_of_two_by_chain_is_two_by_three():
    # classifier.constructive_iso_2xc builds no gadget seed on this proof
    key = canonical_key(two_by_chain(3))
    checked = 0
    for k in range(2, 13):
        L = two_by_chain(k)
        for M in (L, L.relabel(random.Random(k).sample(range(2 * k), 2 * k))):
            for a, b, c in iter_admissible_triples(M):
                report = gadget(M, a, b, c)
                assert (report.size, report.iso_class) == (6, key), (k, a, b, c)
                checked += 1
    assert checked == 2 * 2 * 715  # 2 C(k, 3) triples at each k, sum 2 C(13, 4), plain and relabeled


def test_gadget_inside_cube():
    C = cube3()
    report = gadget(C, 4, 2, 3)
    assert report.size == 6
    assert report.iso_class == canonical_key(two_by_chain(3))


def test_gadget_image_is_closure(stream8):
    for L in stream8:
        for a, b, c in admissible_triples(L):
            report = gadget(L, a, b, c)
            generated = generate_sublattice(L, {a, b, c})
            assert set(report.generated) == generated
            assert report.size <= 9
            assert report.iso_class == canonical_key(L.restrict(generated)[0])


def _never(*args, **kwargs):
    raise AssertionError("not to be called")


def test_census_runs_no_closure_and_builds_no_lattice(stream7, monkeypatch):
    # each gadget is read off the nine FL(P) images and keyed in place
    import latkit.subalgebra
    from latkit import FiniteLattice

    expected = [census_one(L) for L in stream7]
    monkeypatch.setattr(latkit.subalgebra, "generate_sublattice", _never)
    monkeypatch.setattr(FiniteLattice, "__init__", _never)
    assert [census_one(L) for L in stream7] == expected


def test_admissible_triples_ascend_from_the_least(stream6):
    """The lazy scan yields every triple of the definition, in
    lexicographic order, so its first is the least one."""
    for L in stream6:
        every = [
            (a, b, c)
            for a in range(L.n)
            for b in range(L.n)
            for c in range(L.n)
            if b != c and L.le(b, c) and L.incomparable(a, b) and L.incomparable(a, c)
        ]
        assert list(iter_admissible_triples(L)) == admissible_triples(L) == every
        assert next(iter_admissible_triples(L), None) == min(every, default=None)


def test_dual_gadgets_have_dual_fingerprints(stream6):
    for L in stream6:
        D = dual(L)
        for a, b, c in admissible_triples(L):
            fp = gadget(L, a, b, c).fingerprint
            fp_dual = gadget(D, a, c, b).fingerprint
            mapped = tuple(
                sorted(
                    tuple(sorted(FLP_DUALITY[name] for name in block))
                    for block in fp
                )
            )
            assert mapped == fp_dual


# -- the nine-element free lattice -----------------------------------------


def test_flp_nine_shape():
    F = flp_nine()
    assert F.n == 9
    index = {name: i for i, name in enumerate(F.names)}
    assert F.join(index["AC"], index["B"]) == index["AC+B"]
    assert F.meet(index["A+B"], index["C"]) == index["(A+B)C"]
    assert F.le(index["B"], index["C"])
    assert F.incomparable(index["A"], index["B"])
    assert F.incomparable(index["A"], index["C"])


def test_flp_nine_width_two():
    # two chains cover FL(P): {AB, AC, A, A+B, A+C} and {B, AC+B, (A+B)C, C}
    F = flp_nine()
    assert F.width() == 2


def test_flp_nine_regenerates():
    F = flp_nine()
    index = {name: i for i, name in enumerate(F.names)}
    seed = {index["A"], index["B"], index["C"]}
    assert generate_sublattice(F, seed) == set(range(9))


def test_flp_gadget_is_everything():
    F = flp_nine()
    index = {name: i for i, name in enumerate(F.names)}
    report = gadget(F, index["A"], index["B"], index["C"])
    assert report.size == 9
    assert len(report.fingerprint) == 9


# -- universality -----------------------------------------------------------


def test_verify_universal_examples():
    assert verify_universal(n5()) == 1
    assert verify_universal(cube3()) == 12
    assert verify_universal(chain(6)) == 0


def test_verify_universal_closes_only_the_flp_guard(monkeypatch):
    import latkit.subalgebra

    closed = []

    def spy(L, seed):
        closed.append(L.n)
        return generate_sublattice(L, seed)

    monkeypatch.setattr(latkit.subalgebra, "generate_sublattice", spy)
    assert verify_universal(cube3()) == 12
    assert closed == [9]  # flp_nine's transcription guard


def test_verify_universal_stream(stream6):
    for L in stream6:
        verify_universal(L)


# -- census -------------------------------------------------------------------


def test_census_small():
    lattices = [m3(), n5(), cube3(), two_by_chain(4), chain(3)]
    census = gadget_census(lattices)
    assert census.lattices == 5
    assert census.gadgets == sum(
        len(admissible_triples(L)) for L in lattices
    )


def test_census_n5_only_pentagon_case():
    census = gadget_census([n5()])
    assert len(census.iso_classes) == 1
    (key,) = census.iso_classes
    assert len(key) == 5


def test_census_bounds_small_sizes(stream6):
    census = gadget_census(stream6)
    assert len(census.iso_classes) <= 6
    assert len(census.fingerprints) <= 7
    sizes = sorted(len(key) for key in census.iso_classes)
    assert 5 in sizes  # the pentagon case occurs
    assert 9 not in sizes  # FL(P) itself cannot fit below nine elements


def test_census_five_element_lattices():
    from latkit.enumeration import iter_lattices

    census = gadget_census(iter_lattices(5))
    sizes = sorted(len(key) for key in census.iso_classes)
    assert sizes == [5]


def test_census_holds_one_lattice_at_a_time(monkeypatch):
    import weakref

    import latkit.enumeration
    import latkit.subalgebra
    from latkit.enumeration import iter_lattices

    live, seen = weakref.WeakSet(), []
    build, census = latkit.enumeration._lattice_from_dwn, latkit.subalgebra.census_one

    def tracked(dwn):
        L = build(dwn)
        live.add(L)
        return L

    def recording(L):
        seen.append(len(live))
        return census(L)

    monkeypatch.setattr(latkit.enumeration, "_lattice_from_dwn", tracked)
    monkeypatch.setattr(latkit.subalgebra, "census_one", recording)
    assert gadget_census(iter_lattices(8)).lattices == 300
    assert len(seen) == 300 and max(seen) <= 2


def test_census_iso_class_is_a_function_of_the_fingerprint(stream8):
    # the gadget is FL(P)/theta for theta its fingerprint's partition
    census = gadget_census(stream8)
    assert len(census.pairs) == len(census.fingerprints) == 6  # FL(P) itself needs n = 9


def test_sentinels_survive_optimized_mode():
    """Bug sentinels are exceptions, not asserts, which python -O strips."""
    import ast
    import pathlib

    import latkit

    for path in pathlib.Path(latkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_flp_transcription_sentinel(monkeypatch):
    import latkit.subalgebra
    from latkit.errors import InvariantViolated

    monkeypatch.setattr(latkit.subalgebra, "generate_sublattice", lambda L, seed: set(seed))
    with pytest.raises(InvariantViolated):
        latkit.subalgebra.flp_nine()
