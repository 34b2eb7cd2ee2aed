import itertools
import random

import pytest

from latkit import (
    FiniteLattice,
    boolean,
    chain,
    cube3,
    dual,
    m3,
    n5,
    product,
    two_by_chain,
)
from latkit import properties
from latkit.errors import M3N5Disagreement
from latkit.properties import (
    check_property,
    find_forbidden,
    is_distributive,
    is_modular,
    is_semidistributive,
    m3n5_crosscheck,
    whitman_w,
)
from oracles import embedding_is_valid, oracle_find_isomorphism, weak_order


# -- independent oracles: plain full quantification, no early exits ------


def oracle_modular(L):
    return all(
        L.join(a, L.meet(b, c)) == L.meet(L.join(a, b), c)
        for a in range(L.n)
        for b in range(L.n)
        for c in range(L.n)
        if L.le(a, c)
    )


def oracle_distributive(L):
    return all(
        L.meet(a, L.join(b, c)) == L.join(L.meet(a, b), L.meet(a, c))
        for a in range(L.n)
        for b in range(L.n)
        for c in range(L.n)
    )


def oracle_sd(L):
    for a in range(L.n):
        for b in range(L.n):
            for c in range(L.n):
                if L.join(a, b) == L.join(a, c) and L.join(a, b) != L.join(
                    a, L.meet(b, c)
                ):
                    return False
                if L.meet(a, b) == L.meet(a, c) and L.meet(a, b) != L.meet(
                    a, L.join(b, c)
                ):
                    return False
    return True


def oracle_whitman(L):
    for a, b, c, d in itertools.product(range(L.n), repeat=4):
        ab = L.meet(a, b)
        cd = L.join(c, d)
        if L.le(ab, cd):
            if not (
                L.le(a, cd) or L.le(b, cd) or L.le(ab, c) or L.le(ab, d)
            ):
                return False
    return True


def oracle_forbidden(L, pattern):
    """Exhaustive five-subset search with a closure and iso test."""
    P = m3() if pattern == "M3" else n5()
    for subset in itertools.combinations(range(L.n), 5):
        members = set(subset)
        if any(
            L.join(x, y) not in members or L.meet(x, y) not in members
            for x in subset
            for y in subset
        ):
            continue
        sub, _ = L.restrict(members)
        if oracle_find_isomorphism(P, sub) is not None:
            return True
    return False


# -- catalog verdicts -------------------------------------------------------


def test_modular_examples():
    report = is_modular(n5())
    assert not report.verdict
    a, b, c = report.witness
    assert n5().le(a, c)
    assert n5().join(a, n5().meet(b, c)) != n5().meet(n5().join(a, b), c)
    assert is_modular(m3()).verdict
    assert is_modular(cube3()).verdict


def test_distributive_examples():
    assert is_distributive(two_by_chain(4)).verdict
    assert not is_distributive(m3()).verdict
    assert not is_distributive(n5()).verdict


def test_sd_examples():
    assert is_semidistributive(n5(), "both").verdict
    assert is_semidistributive(n5(), "join").verdict
    assert is_semidistributive(n5(), "meet").verdict
    assert not is_semidistributive(m3(), "both").verdict
    assert is_semidistributive(chain(5), "both").verdict
    with pytest.raises(ValueError):
        is_semidistributive(m3(), "sideways")


def test_whitman_examples():
    assert whitman_w(cube3()).verdict
    assert whitman_w(m3()).verdict
    # doubly reducible middle element defeats (W)
    L7 = FiniteLattice.from_covers(
        7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)]
    )
    report = whitman_w(L7)
    assert not report.verdict
    assert report.witness == (4, 5, 1, 2)
    x, y, z, w = report.witness
    assert L7.le(L7.meet(x, y), L7.join(z, w))
    assert not L7.le(x, L7.join(z, w))
    assert not L7.le(y, L7.join(z, w))
    assert not L7.le(L7.meet(x, y), z)
    assert not L7.le(L7.meet(x, y), w)


def test_forbidden_examples():
    assert find_forbidden(n5(), "N5") == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert find_forbidden(two_by_chain(3), "N5") is None
    assert find_forbidden(product(chain(3), chain(3)), "M3") is None
    assert find_forbidden(m3(), "M3") is not None
    with pytest.raises(ValueError):
        find_forbidden(m3(), "M4")


def test_embeddings_revalidate(stream6):
    for L in stream6:
        for pattern in ("M3", "N5"):
            emb = find_forbidden(L, pattern)
            if emb is not None:
                assert embedding_is_valid(L, pattern, emb)


def test_crosscheck_examples():
    report = m3n5_crosscheck(n5())
    assert not report.modular and report.n5_embedding is not None
    report = m3n5_crosscheck(m3())
    assert report.modular and report.m3_embedding is not None
    assert not report.distributive


def test_crosscheck_agree_is_computed(monkeypatch):
    # a report is returned only when the verdicts match the embeddings
    for L in (n5(), m3(), chain(3)):
        report = m3n5_crosscheck(L)
        n5_free = report.n5_embedding is None
        assert report.modular == n5_free
        assert report.distributive == (n5_free and report.m3_embedding is None)
    monkeypatch.setattr(properties, "_modular", lambda L: True)
    with pytest.raises(M3N5Disagreement):
        m3n5_crosscheck(n5())


# -- oracle agreement over the enumerated corpus -------------------------


def test_equational_checkers_match_oracles(stream6):
    for L in stream6:
        assert is_modular(L).verdict == oracle_modular(L)
        assert is_distributive(L).verdict == oracle_distributive(L)
        assert is_semidistributive(L, "both").verdict == oracle_sd(L)
        assert whitman_w(L).verdict == oracle_whitman(L)


def test_forbidden_matches_subset_oracle(stream6):
    for L in stream6:
        for pattern in ("M3", "N5"):
            assert (find_forbidden(L, pattern) is not None) == oracle_forbidden(
                L, pattern
            )


def test_distributive_iff_modular_and_sd(stream8):
    for L in stream8:
        lhs = is_distributive(L).verdict
        rhs = is_modular(L).verdict and is_semidistributive(L, "both").verdict
        assert lhs == rhs


def test_dr_defeats_whitman(stream8):
    for L in stream8:
        if L.doubly_reducibles():
            assert not whitman_w(L).verdict


def test_verdicts_relabeling_invariant(stream6):
    rng = random.Random(31)
    for L in rng.sample([K for K in stream6 if K.n >= 3], 12):
        perm = list(range(L.n))
        rng.shuffle(perm)
        R = L.relabel(perm)
        assert is_modular(L).verdict == is_modular(R).verdict
        assert is_distributive(L).verdict == is_distributive(R).verdict
        assert (
            is_semidistributive(L, "both").verdict
            == is_semidistributive(R, "both").verdict
        )
        assert whitman_w(L).verdict == whitman_w(R).verdict
        for pattern in ("M3", "N5"):
            assert (find_forbidden(L, pattern) is None) == (
                find_forbidden(R, pattern) is None
            )


def test_sd_self_duality(stream6):
    for L in stream6:
        assert (
            is_semidistributive(L, "join").verdict
            == is_semidistributive(dual(L), "meet").verdict
        )


def test_witnesses_recheck(stream6):
    for L in stream6:
        report = is_modular(L)
        if not report.verdict:
            a, b, c = report.witness
            assert L.le(a, c)
            assert L.join(a, L.meet(b, c)) != L.meet(L.join(a, b), c)
        report = is_semidistributive(L, "both")
        if not report.verdict:
            a, b, c = report.witness
            join_bad = L.join(a, b) == L.join(a, c) and L.join(a, b) != L.join(
                a, L.meet(b, c)
            )
            meet_bad = L.meet(a, b) == L.meet(a, c) and L.meet(a, b) != L.meet(
                a, L.join(b, c)
            )
            assert join_bad or meet_bad


def test_a_passing_verdict_runs_no_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned a lattice that passes")

    monkeypatch.setattr(properties, "first_hit", no_scan)
    for L in (chain(1), boolean(4), two_by_chain(6), product(chain(3), chain(4))):
        assert is_modular(L).verdict and is_distributive(L).verdict
        assert is_semidistributive(L, "both").verdict
    assert is_semidistributive(weak_order(4), "both").verdict
    assert is_modular(m3()).verdict


def test_check_property_dispatch():
    L = n5()
    assert check_property(L, "modular").verdict is False
    assert check_property(L, "sd").verdict is True
    assert check_property(L, "forbidden-n5").verdict is True
    assert check_property(L, "forbidden-m3").verdict is False
    with pytest.raises(ValueError):
        check_property(L, "flatness")
