import random
from itertools import combinations
from math import comb

import pytest

import latkit.core
from latkit import FiniteLattice, boolean, chain, dual, linear_sum, m3, n5, product, two_by_chain
from latkit.core import arrows
from latkit.enumeration import all_lattices
from latkit.jonsson import (
    _layers,
    _relation,
    d_sequence,
    min_join_covers,
)
from latkit.properties import find_forbidden, is_distributive, is_semidistributive, whitman_w
from oracles import (
    join_primes,
    oracle_d_layers,
    oracle_layers_from_covers,
    oracle_min_join_covers,
    refines,
)


def diamond(k):
    """M_k: k atoms between a bottom 0 and a top k + 1."""
    return FiniteLattice.from_covers(
        k + 2, [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    )


def test_refines_examples():
    L = n5()
    # members of {p, q} each lie below a member of {q, r}
    assert refines(L, (1, 2), (2, 3))
    assert refines(L, (1, 2), (1, 2))
    assert not refines(L, (4,), (1,))


def test_min_join_covers_examples():
    M3 = m3()
    assert min_join_covers(M3, 1) == [(2, 3)]
    assert min_join_covers(M3, 4) == [(1, 2), (1, 3), (2, 3)]
    for x in range(5):
        assert min_join_covers(chain(5), x) == []
    assert min_join_covers(n5(), 3) == [(1, 2)]
    assert min_join_covers(n5(), 4) == [(1, 2)]


def test_join_primes_include_bottom(stream6):
    for L in stream6:
        assert L.bottom in join_primes(L)


def test_join_primes_are_irreducible_above_bottom(stream8):
    for L in stream8:
        ji = set(L.join_irreducibles())
        for x in join_primes(L):
            if x != L.bottom:
                assert x in ji


def test_d_sequence_m3():
    ds = d_sequence(m3())
    assert ds.d_full == (0,)
    assert ds.quadrant == "(!=,!=)"
    assert ds.dual_full == (4,)


def test_d_sequence_n5():
    ds = d_sequence(n5())
    assert ds.layers[0] == (0, 1, 2)
    assert ds.layers[1] == (0, 1, 2, 3, 4)
    assert ds.stabilized_at == 1
    assert ds.quadrant == "(=,=)"


@pytest.mark.parametrize("k", [3, 4, 8, 16])
def test_d_sequence_diamonds(k):
    """M_k: the bottom is the only join prime and the top the only meet
    prime, and the top's minimal covers are the pairs of atoms."""
    M = diamond(k)
    payload = d_sequence(M).to_json_dict()
    assert payload["layers"] == [[0]]
    assert payload["dual_layers"] == [[k + 1]]
    assert payload["quadrant"] == "(!=,!=)"
    top_covers = min_join_covers(M, k + 1)
    assert len(top_covers) == comb(k, 2)
    assert top_covers == list(combinations(range(1, k + 1), 2))


def test_layers_monotone_and_bounded(stream7):
    for L in stream7:
        ds = d_sequence(L)
        for small, big in zip(ds.layers, ds.layers[1:]):
            assert set(small) <= set(big)
        assert ds.stabilized_at <= L.n
        assert ds.d_full == ds.layers[-1]


def test_dual_consistency(stream6):
    for L in stream6:
        ds = d_sequence(L)
        flipped = d_sequence(dual(L))
        assert ds.dual_full == flipped.d_full
        assert ds.d_full == flipped.dual_full


def test_distributive_quadrant(stream8):
    for L in stream8:
        if is_distributive(L).verdict:
            ds = d_sequence(L)
            assert ds.quadrant == "(=,=)"
            assert ds.d_full == tuple(range(L.n))
            assert ds.dual_full == tuple(range(L.n))


def test_min_covers_match_subset_oracle(stream7):
    for L in stream7:
        for x in range(L.n):
            assert min_join_covers(L, x) == oracle_min_join_covers(L, x)


def test_layers_match_subset_oracle(stream7):
    for L in stream7:
        fast = [frozenset(layer) for layer in _layers(_relation(*arrows(L)))]
        slow = [frozenset(layer) for layer in oracle_d_layers(L)]
        assert fast == slow


@pytest.mark.parametrize("chunk", [None, 16])
def test_d_relation_matches_min_join_covers(stream9, monkeypatch, chunk):
    """p D q iff q is a member of a minimal nontrivial join cover of p,
    on both sides, and the layers agree with those read off the covers;
    with a tiny CHUNK the D pass runs a row or a few at a time.  Inputs:
    the n <= 9 stream, larger shapes, and three of them renumbered."""
    if chunk is not None:
        monkeypatch.setattr(latkit.core, "CHUNK", chunk)
    rng = random.Random(10)
    shapes = [product(chain(6), chain(8)), linear_sum(boolean(5), n5()), product(n5(), m3())]
    shuffled = [L.relabel(rng.sample(range(L.n), L.n)) for L in shapes]
    for L in stream9 + [two_by_chain(24), boolean(5), diamond(7)] + shapes + shuffled:
        ds, (J, M, up, down) = d_sequence(L), arrows(L)
        relations = _relation(J, M, up, down), _relation(M, J, down, up)
        for side, rel, layers in zip((L, dual(L)), relations, (ds.layers, ds.dual_layers)):
            for p in range(L.n):
                members = {q for X in min_join_covers(side, p) for q in X}
                assert set(rel[p].nonzero()[0].tolist()) == members
            assert _layers(rel) == oracle_layers_from_covers(side)
            assert [frozenset(layer) for layer in layers] == _layers(rel)


def _bounded_counts(lattices, max_n):
    """Per-n counts of the bounded (quadrant (=,=)), the SD, and the SD
    and (W) lattices, asserting on each lattice that bounded implies SD
    (Day 1979) and that SD and (W) imply bounded (Nation 1982) and
    exclude M3."""
    bounded, sd, sd_w = [0] * max_n, [0] * max_n, [0] * max_n
    for L in lattices:
        is_bounded = d_sequence(L).quadrant == "(=,=)"
        is_sd = is_semidistributive(L, "both").verdict
        has_w = whitman_w(L).verdict
        assert is_sd or not is_bounded, L
        assert is_bounded or not (is_sd and has_w), L
        assert find_forbidden(L, "M3") is None or not (is_sd and has_w), L
        bounded[L.n - 1] += is_bounded
        sd[L.n - 1] += is_sd
        sd_w[L.n - 1] += is_sd and has_w
    return bounded, sd, sd_w


def test_bounded_lattice_theorems(stream9):
    """The theorems on every lattice with n <= 10, and the per-n counts
    of how often each side holds."""
    bounded, sd, sd_w = _bounded_counts(stream9 + all_lattices(10, cap=10), 10)
    assert bounded == sd == [1, 1, 1, 2, 4, 9, 22, 60, 174, 534]
    assert sd_w == [1, 1, 1, 2, 4, 9, 21, 54, 142, 383]


@pytest.mark.slow
def test_bounded_lattice_theorems_at_11():
    bounded, sd, sd_w = _bounded_counts(all_lattices(11, cap=11), 11)
    assert (bounded[10], sd[10], sd_w[10]) == (1720, 1720, 1040)


def test_quadrants_cover_all_four(stream8):
    seen = {d_sequence(L).quadrant for L in stream8}
    assert seen == {"(=,=)", "(=,!=)", "(!=,=)", "(!=,!=)"}


def test_json_shape():
    payload = d_sequence(two_by_chain(3)).to_json_dict()
    assert set(payload) == {
        "layers",
        "stabilized_at",
        "d_full",
        "dual_layers",
        "dual_stabilized_at",
        "dual_full",
        "quadrant",
    }
