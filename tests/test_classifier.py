import random
import time

import pytest

from latkit import (
    FiniteLattice,
    boolean,
    chain,
    cube3,
    linear_sum,
    m3,
    n5,
    product,
    two_by_chain,
)
from latkit import classifier, properties
from latkit.classifier import (
    _rail_map,
    check_theorem,
    classify_block,
    constructive_iso_2xc,
)
from latkit.errors import PreconditionFailed
from latkit.ladder import decorate, window
from latkit.properties import is_distributive, is_modular
from oracles import oracle_classify_block, oracle_find_isomorphism


def test_classify_blocks():
    L = linear_sum(cube3(), two_by_chain(5))
    blocks = L.linear_decompose()
    assert classify_block(L, blocks[0]) == "Cube"
    assert classify_block(L, blocks[1]) == "TwoByChain"
    M = m3()
    assert classify_block(M, M.linear_decompose()[0]) == "Other"


def _diamond(k):
    """M_k: k atoms between a bottom and a top."""
    atoms = range(1, k + 1)
    return FiniteLattice.from_covers(k + 2, [(0, a) for a in atoms] + [(a, k + 1) for a in atoms])


def test_classify_block_long_ladder():
    # n = 1,024: far more elements than the recursion limit allows frames
    L = two_by_chain(512)
    (block,) = L.linear_decompose()
    assert classify_block(L, block) == "TwoByChain"


def test_classify_block_finds_ladders_without_a_canonical_search(monkeypatch):
    def no_search(L):
        raise AssertionError("canonical search on a ladder block")

    monkeypatch.setattr(classifier, "canonical_key", no_search)
    L = two_by_chain(512)
    (block,) = L.linear_decompose()
    assert classify_block(L, block) == "TwoByChain"


def test_classify_block_of_the_whole_lattice_builds_no_lattice(monkeypatch):
    L = two_by_chain(512)
    (block,) = L.linear_decompose()

    def no_build(*args, **kwargs):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(FiniteLattice, "__init__", no_build)
    assert classify_block(L, block) == "TwoByChain"


def test_classify_block_wide_even_block_is_quick():
    # n = 102 is even, but width 100 keeps M_100 out of the canonical search
    L = _diamond(100)
    (block,) = L.linear_decompose()
    start = time.perf_counter()
    assert classify_block(L, block) == "Other"
    assert time.perf_counter() - start < 1.0


def _ladders_and_near_misses():
    """2 x C_k for k = 2..16, plain and relabeled; even width-two
    lattices, most of them near misses: windows decorated by two case
    insertions or by one case-2 insertion (which gives a longer ladder),
    and linear sums of two ladders; and C3 x C3."""
    rng = random.Random(20)
    ladders = [two_by_chain(k) for k in range(2, 17)]
    ladders += [L.relabel(rng.sample(range(L.n), L.n)) for L in ladders]
    specs = [[(2, 0)]] + [[(c, 0), (d, 1)] for c in (1, 2, 3) for d in (1, 2, 3)]
    decorated = [
        decorate(window(k), {"insert": [{"case": c, "at": at} for c, at in spec]}).lattice
        for k in (2, 3)
        for spec in specs
    ]
    sums = [linear_sum(two_by_chain(a), two_by_chain(b)) for a in (2, 3) for b in (2, 4)]
    near = [L for L in decorated + sums if L.n % 2 == 0 and L.width() == 2]
    assert len(near) >= 10
    return ladders + near + [product(chain(3), chain(3))]


def test_classify_block_matches_oracle(stream9):
    composites = [
        two_by_chain(24),
        boolean(5),
        linear_sum(cube3(), two_by_chain(6)),
        _diamond(7),
        product(chain(6), chain(8)),
        *_ladders_and_near_misses(),
    ]
    rng = random.Random(7)
    shuffled = []
    for L in composites:
        perm = list(range(L.n))
        rng.shuffle(perm)
        shuffled.append(L.relabel(perm))
    tags = set()
    for L in stream9 + composites + shuffled:
        for block in L.linear_decompose():
            tag = classify_block(L, block)
            assert tag == oracle_classify_block(L, block), (L, block)
            tags.add(tag)
    assert tags == {"Singleton", "Cube", "TwoByChain", "Other"}


def test_check_theorem_composite():
    verdict = check_theorem(linear_sum(cube3(), two_by_chain(3)))
    assert verdict.passes
    assert [b.tag for b in verdict.blocks] == ["Cube", "TwoByChain"]


def test_check_theorem_grid():
    verdict = check_theorem(product(chain(3), chain(3)))
    assert not verdict.passes
    assert not verdict.dr_free
    assert [b.tag for b in verdict.blocks] == ["Other"]


def test_check_theorem_chain_runs():
    verdict = check_theorem(chain(4))
    assert verdict.passes
    assert all(b.tag == "Singleton" for b in verdict.blocks)


def test_check_theorem_stream(stream9):
    for L in stream9:
        verdict = check_theorem(L)  # agreement asserted inside
        assert verdict.passes == (verdict.distributive and verdict.dr_free)


def test_constructive_iso_small():
    f = constructive_iso_2xc(two_by_chain(2))
    target = two_by_chain(2)
    L = two_by_chain(2)
    for x in range(4):
        for y in range(4):
            assert f[L.join(x, y)] == target.join(f[x], f[y])


@pytest.mark.parametrize("k,seed", [(2, 3), (3, 5), (4, 7), (5, 11), (6, 13), (7, 17)])
def test_constructive_iso_relabeled(k, seed):
    L = two_by_chain(k)
    perm = list(range(2 * k))
    random.Random(seed).shuffle(perm)
    R = L.relabel(perm)
    f = constructive_iso_2xc(R)
    target = two_by_chain(k)
    assert sorted(f) == list(range(2 * k))
    for x in range(2 * k):
        for y in range(2 * k):
            assert f[R.join(x, y)] == target.join(f[x], f[y])
            assert f[R.meet(x, y)] == target.meet(f[x], f[y])
    # independent check
    assert oracle_find_isomorphism(R, target) is not None


def test_constructive_iso_preconditions():
    with pytest.raises(PreconditionFailed) as info:
        constructive_iso_2xc(n5())
    assert info.value.name == "modular"
    with pytest.raises(PreconditionFailed) as info:
        constructive_iso_2xc(m3())
    assert info.value.name == "width-2"
    with pytest.raises(PreconditionFailed) as info:
        constructive_iso_2xc(product(chain(3), chain(3)))
    assert info.value.name == "width-2"
    with pytest.raises(PreconditionFailed) as info:
        constructive_iso_2xc(chain(5))
    assert info.value.name == "width-2"
    with pytest.raises(PreconditionFailed) as info:
        constructive_iso_2xc(linear_sum(two_by_chain(2), two_by_chain(2)))
    assert info.value.name == "indecomposable"


def test_verdict_only_readers_skip_the_witness_scan(monkeypatch):
    """check_theorem, constructive_iso_2xc and m3n5_crosscheck read the
    structural verdicts, never a PropertyReport with its witness scan."""

    def no_report(*args):
        raise AssertionError("built a property report")

    monkeypatch.setattr(properties, "_report", no_report)
    verdict = check_theorem(n5())
    assert not verdict.distributive and not verdict.passes
    with pytest.raises(PreconditionFailed) as info:
        constructive_iso_2xc(n5())
    assert info.value.name == "modular"
    report = properties.m3n5_crosscheck(n5())
    assert not report.modular and not report.distributive
    assert report.n5_embedding is not None and report.m3_embedding is None


def test_rail_map_matches_oracle(stream9):
    """_rail_map finds a map exactly when L is isomorphic to 2 x C_{n/2},
    and the map it finds is an isomorphism."""
    shuffled = [
        two_by_chain(k).relabel(random.Random(k).sample(range(2 * k), 2 * k))
        for k in range(2, 13)
    ]
    for L in list(stream9) + shuffled + _ladders_and_near_misses():
        f = _rail_map(L)
        target = two_by_chain(L.n // 2) if L.n % 2 == 0 else None
        assert (f is not None) == (target is not None and oracle_find_isomorphism(L, target) is not None)
        if f is not None:
            assert sorted(f) == list(range(L.n))
            assert all(L.le(x, y) == target.le(f[x], f[y]) for x in range(L.n) for y in range(L.n))


def test_width2_finite_form(stream9):
    """Indecomposable distributive DR-free width-2 lattices are exactly
    the 2 x C_k, and the constructive procedure succeeds on each."""
    for L in stream9:
        qualifies = (
            len(L.linear_decompose()) == 1
            and is_distributive(L).verdict
            and not L.doubly_reducibles()
            and L.width() == 2
        )
        ladder_like = (
            L.n >= 4
            and L.n % 2 == 0
            and oracle_find_isomorphism(L, two_by_chain(L.n // 2)) is not None
        )
        assert qualifies == ladder_like
        if qualifies:
            assert constructive_iso_2xc(L) is not None


def test_modular_width2_equals_distributive_width2(stream8):
    for L in stream8:
        if (
            len(L.linear_decompose()) == 1
            and not L.doubly_reducibles()
            and L.width() == 2
        ):
            assert is_modular(L).verdict == is_distributive(L).verdict
