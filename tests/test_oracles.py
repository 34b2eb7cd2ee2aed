"""The bitset core, the array checkers and the forbidden-sublattice
scan against the slow oracles in oracles.py: same tables, covers,
closures, verdicts, witnesses, embeddings and error pairs.  Also the
oracles' own checks: the backtracking isomorphism on known cases."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latkit import FiniteLattice, boolean, chain, cube3, linear_sum, m3, n5, product, two_by_chain
from latkit.core import dual, transitive_closure
from latkit.errors import NotALattice, NotAPartialOrder
from latkit.ladder import _normalize_spec, decorate, window
from latkit.properties import (
    find_forbidden,
    is_distributive,
    is_modular,
    is_semidistributive,
    whitman_w,
)
from latkit.subalgebra import generate_sublattice


def diamond(k):
    return FiniteLattice.from_covers(
        k + 2, [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    )


@pytest.fixture(scope="module")
def large_shapes():
    """The checker inputs of the large benchmark workload."""
    return [
        two_by_chain(24),
        boolean(6),
        product(chain(6), chain(8)),
        linear_sum(boolean(5), n5()),
        diamond(7),
    ]


CHECKERS = [
    (is_modular, oracles.is_modular),
    (is_distributive, oracles.is_distributive),
    (lambda L: is_semidistributive(L, "join"), lambda L: oracles.is_semidistributive(L, "join")),
    (lambda L: is_semidistributive(L, "meet"), lambda L: oracles.is_semidistributive(L, "meet")),
    (lambda L: is_semidistributive(L, "both"), lambda L: oracles.is_semidistributive(L, "both")),
    (whitman_w, oracles.whitman_w),
]


def test_construction_matches_oracles(stream9, large_shapes):
    for L in stream9 + large_shapes:
        join, meet = oracles.build_tables(L.leq)
        assert (L.join_table == join).all() and (L.meet_table == meet).all()
        assert L.covers == oracles.covers(L.leq)
        assert (transitive_closure(L.leq) == L.leq).all()
        rebuilt = FiniteLattice.from_covers(L.n, L.covers)
        assert (rebuilt.leq == L.leq).all()


def test_restrict_and_dual_tables_match_oracles(stream7):
    def assert_tables(L):
        join, meet = oracles.build_tables(L.leq)
        assert (L.join_table == join).all() and (L.meet_table == meet).all()

    for L in stream7:
        assert_tables(dual(L))
        for seed in ({0, L.n - 1}, set(range(0, L.n, 2)), {L.n // 2, max(L.n - 2, 0)}):
            sub, subset = L.restrict(generate_sublattice(L, seed))
            assert_tables(sub)
            assert (sub.leq == L.leq[np.ix_(subset, subset)]).all()
    # a subset that is not a sublattice gets searched tables: {0, 1, 2, 7}
    # is a square whose atoms join to 7, where in the cube they join to 3
    sub, subset = boolean(3).restrict({0, 1, 2, 7})
    assert_tables(sub)
    assert subset[sub.join(1, 2)] == 7
    with pytest.raises(NotALattice):
        boolean(3).restrict({1, 2, 4, 7})


def test_checkers_match_oracles(stream9, large_shapes):
    """Verdict and witness; the library reads a verdict off the covers and
    irreducibles, and scans only for a failure's witness."""
    windows = [W.lattice for W in oracles.seeded_windows(40)]
    weak = oracles.weak_order(4)
    verdicts = set()
    for L in stream9 + large_shapes + windows + list(_chained_windows()) + [weak]:
        for fast, slow in CHECKERS:
            report = fast(L)
            assert report == slow(L), L
            verdicts.add((report.property, report.verdict))
    assert len(verdicts) == 2 * len(CHECKERS)
    assert is_semidistributive(weak).verdict and not is_modular(weak).verdict


def test_forbidden_matches_oracle(stream9, large_shapes):
    found = {"M3": 0, "N5": 0}
    for L in stream9 + large_shapes:
        for pattern in found:
            emb = find_forbidden(L, pattern)
            assert emb == oracles.find_forbidden(L, pattern), (L, pattern)
            found[pattern] += emb is not None
    assert all(found.values())


def _chained_windows():
    """The seeded specs whose items decoration_order accepts, with a
    between anchor on an earlier item, that decorate to lattices."""
    for radius, spec in oracles.seeded_specs(400):
        W = window(radius)
        items = _normalize_spec(spec)
        if any(isinstance(a, str) for item in items for a in item["between"]):
            try:
                if oracles.decoration_order(W, items)[0] is None:
                    yield decorate(W, spec).lattice
            except (NotALattice, NotAPartialOrder):
                pass


def test_structural_verdicts_match_the_scans(stream9, large_shapes):
    scans = {
        "modular": oracles.is_modular,
        "distributive": oracles.is_distributive,
        "sd-join": lambda L: oracles.is_semidistributive(L, "join"),
        "sd-meet": lambda L: oracles.is_semidistributive(L, "meet"),
    }
    windows = [W.lattice for W in oracles.seeded_windows(40)]
    chained = list(_chained_windows())
    rejected = dict.fromkeys(scans, 0)
    for L in stream9 + large_shapes + [product(chain(10), chain(10))] + windows + chained:
        verdicts = oracles.structural_verdicts(L)
        for name, scan in scans.items():
            assert verdicts[name] == scan(L).verdict, (L, name)
            rejected[name] += not verdicts[name]
    assert len(chained) >= 20 and all(rejected.values())


def _natural_posets(max_n):
    """Every naturally labelled poset (i < j in the order implies i < j
    as integers) with at most max_n elements, as down-set masks."""
    level = [()]
    for k in range(max_n):
        nxt = []
        for dwn in level:
            # the strict down-set of the new element k: any down-closed set
            for below in range(1 << k):
                if all(dwn[i] & ~below == 0 for i in range(k) if below >> i & 1):
                    nxt.append(dwn + (below | 1 << k,))
        level = nxt
        yield from level


def test_not_a_lattice_witness_matches_oracle():
    seen = failures = 0
    for dwn in _natural_posets(6):
        n = len(dwn)
        leq = np.array([[dwn[j] >> i & 1 for j in range(n)] for i in range(n)], dtype=bool)
        try:
            expected = oracles.build_tables(leq)
        except NotALattice as exc:
            expected = exc
        try:
            L = FiniteLattice(leq)
        except NotALattice as exc:
            assert isinstance(expected, NotALattice), dwn
            assert (exc.pair, exc.kind) == (expected.pair, expected.kind), dwn
            failures += 1
        else:
            assert not isinstance(expected, NotALattice), dwn
            assert (L.join_table == expected[0]).all() and (L.meet_table == expected[1]).all()
        seen += 1
    assert seen == 1 + 2 + 7 + 40 + 357 + 4824  # OEIS A006455, n = 1..6
    assert failures > 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
        )
    )
)
def test_closure_matches_oracle(case):
    n, pairs = case
    rel = np.eye(n, dtype=bool)
    for i, j in pairs:
        rel[i, j] = True
    try:
        expected = oracles.transitive_closure(rel)
    except NotAPartialOrder as exc:
        with pytest.raises(NotAPartialOrder) as info:
            transitive_closure(rel)
        assert info.value.cycle == exc.cycle
        strict = [(i, j) for i, j in pairs if i != j]
        with pytest.raises(NotAPartialOrder) as info:
            FiniteLattice.from_covers(n, strict)
        assert info.value.cycle == exc.cycle
    else:
        assert (transitive_closure(rel) == expected).all()


# -- the isomorphism oracle ------------------------------------------------


def test_cube_is_boolean():
    assert oracles.oracle_find_isomorphism(cube3(), boolean(3)) == [0, 1, 2, 3, 4, 5, 6, 7]


def test_iso_identity_and_relabel():
    L = n5()
    assert oracles.oracle_find_isomorphism(L, L) == [0, 1, 2, 3, 4]
    perm = [3, 0, 4, 2, 1]
    R = L.relabel(perm)
    f = oracles.oracle_find_isomorphism(L, R)
    assert f is not None
    for x in range(5):
        for y in range(5):
            assert L.le(x, y) == R.le(f[x], f[y])


def test_iso_lex_least():
    L = m3()
    R = L.relabel([4, 2, 3, 1, 0])
    f = oracles.oracle_find_isomorphism(L, R)
    maps = []
    for perm in itertools.permutations(range(5)):
        if all(
            L.le(x, y) == R.le(perm[x], perm[y])
            for x in range(5)
            for y in range(5)
        ):
            maps.append(list(perm))
    assert f == min(maps)


def test_iso_negative():
    assert oracles.oracle_find_isomorphism(m3(), n5()) is None
    assert oracles.oracle_find_isomorphism(chain(4), two_by_chain(2)) is None


def test_iso_gadget_in_cube():
    # the six-element sublattice of the cube generated by {x, y, y+z}
    from latkit.subalgebra import generate_sublattice

    C = cube3()
    members = generate_sublattice(C, {4, 2, 3})
    sub, _ = C.restrict(members)
    assert oracles.oracle_find_isomorphism(sub, two_by_chain(3)) is not None


def test_iso_symmetry(stream6):
    rng = random.Random(11)
    for L in rng.sample(stream6, 10):
        perm = list(range(L.n))
        rng.shuffle(perm)
        R = L.relabel(perm)
        f = oracles.oracle_find_isomorphism(L, R)
        g = oracles.oracle_find_isomorphism(R, L)
        assert f is not None and g is not None
        # the maps need not invert each other, but both must be isos
        for x in range(L.n):
            for y in range(L.n):
                assert L.le(x, y) == R.le(f[x], f[y])
                assert R.le(x, y) == L.le(g[x], g[y])
