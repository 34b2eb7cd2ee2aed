import pytest

from latkit import chain, find_isomorphism, linear_sum, n5, two_by_chain
from latkit.enumeration import (
    LATTICE_COUNTS,
    all_lattices,
    conjecture1_scan,
    pocket_decomposition,
    poset_key,
    verify_corpus,
)
from latkit.errors import CounterexampleFound, SizeCapExceeded
from latkit.properties import whitman_w
from oracles import oracle_lattice_census


def test_counts_match_frozen():
    for n, expected in enumerate(LATTICE_COUNTS, start=1):
        assert len(all_lattices(n)) == expected


def test_counts_match_oracle():
    for n in range(1, 8):
        classes, labeled = oracle_lattice_census(n)
        assert classes == len(all_lattices(n))
        assert labeled >= classes


def test_oracle_pruning_agrees():
    for n in range(1, 7):
        assert (
            oracle_lattice_census(n, prune_meets=True)[0]
            == oracle_lattice_census(n, prune_meets=False)[0]
        )


def test_larger_level_counts():
    assert len(all_lattices(8)) == 222
    assert len(all_lattices(9)) == 1078


def test_no_isomorphic_duplicates(stream6):
    for i, L in enumerate(stream6):
        for K in stream6[i + 1 :]:
            assert find_isomorphism(L, K) is None


def test_all_emitted_are_lattices(stream7):
    # FiniteLattice construction re-validates unique bounds; spot-check
    # absorption too
    for L in stream7:
        for x in range(L.n):
            for y in range(L.n):
                assert L.join(x, L.meet(x, y)) == x


def test_stream_deterministic():
    first = [sorted(L.covers) for L in all_lattices(6)]
    second = [sorted(L.covers) for L in all_lattices(6)]
    assert first == second


def test_poset_key_identifies_relabelings():
    # two natural labelings of the pentagon (the parallel chains swapped)
    pentagon_a = (0b1, 0b11, 0b101, 0b1011, 0b11111)
    pentagon_b = (0b1, 0b11, 0b101, 0b1101, 0b11111)
    chain5 = (0b1, 0b11, 0b111, 0b1111, 0b11111)
    assert poset_key(pentagon_a) == poset_key(pentagon_b)
    assert poset_key(pentagon_a) != poset_key(chain5)
    # a meet-semilattice with automorphism group S_3: a bottom under three
    # two-element legs; labeled leg by leg and atoms first
    spider_a = (0b1, 0b11, 0b101, 0b1011, 0b10001, 0b110001, 0b1000101)
    spider_b = (0b1, 0b11, 0b101, 0b1001, 0b10011, 0b100101, 0b1001001)
    # legs of lengths 3, 2 and 1 instead
    uneven = (0b1, 0b11, 0b101, 0b1001, 0b10011, 0b110011, 0b1000101)
    assert poset_key(spider_a) == poset_key(spider_b)
    assert poset_key(spider_a) != poset_key(uneven)


def test_cap_enforced():
    with pytest.raises(SizeCapExceeded):
        all_lattices(10)
    with pytest.raises(SizeCapExceeded):
        all_lattices(0)
    assert len(all_lattices(10, cap=10)) == 5994


@pytest.mark.slow
def test_level_11_count():
    assert len(all_lattices(11, cap=11)) == 37622  # OEIS A006966


@pytest.mark.parametrize("n,count", [(1, 1), (4, 2), (6, 15), (7, 53)])
def test_exact_level_sizes(n, count):
    assert len(all_lattices(n)) == count


# -- pockets ---------------------------------------------------------------


def test_pockets_n5():
    pockets, failures = pocket_decomposition(n5())
    assert failures == []
    assert len(pockets) == 1
    p = pockets[0]
    assert (p.zero, p.one) == (0, 4)
    assert p.chain_a == (1, 3) and p.chain_b == (2,)


def test_pockets_ladder_squares():
    pockets, failures = pocket_decomposition(two_by_chain(4))
    assert failures == []
    assert [len(p.chain_a) + len(p.chain_b) for p in pockets] == [2, 2, 2]
    assert [(p.zero, p.one) for p in pockets] == [(0, 5), (1, 6), (2, 7)]


def test_pockets_chain_prefix():
    L = linear_sum(chain(2), n5())
    pockets, failures = pocket_decomposition(L)
    assert failures == []
    assert [(p.zero, p.one) for p in pockets] == [(0, 1), (1, 2), (2, 6)]
    assert pockets[0].chain_a == ()


def test_pocket_laws_revalidate(stream8):
    for L in stream8:
        if L.width() != 2 or not whitman_w(L).verdict:
            continue
        pockets, failures = pocket_decomposition(L)
        assert failures == []
        for p in pockets:
            for a in p.chain_a:
                for b in p.chain_b:
                    assert L.join(a, b) == p.one
                    assert L.meet(a, b) == p.zero


def test_conjecture_scan():
    report = conjecture1_scan(8)
    assert report.scanned == 300
    assert report.width2_w == 75
    assert report.sd_failures == []
    assert report.decomposition_failures == []
    assert len(report.entries) == 75
    payload = report.to_json_dict()
    assert payload["width2_whitman"] == 75


def test_verify_corpus_prop_width2_sentinel(monkeypatch):
    import latkit.classifier

    monkeypatch.setattr(latkit.classifier, "constructive_iso_2xc", lambda L: None)
    with pytest.raises(CounterexampleFound) as info:
        verify_corpus(max_n=6)
    assert info.value.witness.n == 4  # 2 x C_2 is the first instance


def test_verify_corpus_counts_m3n5_disagreements(monkeypatch):
    import latkit.properties
    from latkit.enumeration import iter_lattices

    # a modular checker that always says no disagrees on every N5-free lattice
    fake = latkit.properties.PropertyReport("modular", False, (0, 0, 0))
    monkeypatch.setattr(latkit.properties, "is_modular", lambda L: fake)
    expected = sum(1 for L in iter_lattices(5) if latkit.properties.find_forbidden(L, "N5") is None)
    report = verify_corpus(max_n=5)
    assert report["m3n5"] == {"max_n": 5, "disagreements": expected, "pass": False}
    assert expected > 0 and not report["pass"]


def test_verify_corpus_counts_theorem_disagreements(monkeypatch, capsys):
    import latkit.classifier
    from latkit.cli import run

    # every block tagged Other puts the shape side against the law side
    # on each distributive lattice free of doubly reducible elements
    monkeypatch.setattr(latkit.classifier, "classify_block", lambda L, block: "Other")
    report = verify_corpus(max_n=5)
    assert report["gj_theorem"] == {"max_n": 5, "pass": False}
    assert not report["pass"]
    assert run(["verify", "corpus", "--max-n", "5"]) == 1


def test_verify_corpus_counts_universality_failures(monkeypatch, capsys):
    import latkit.subalgebra
    from latkit.cli import run
    from latkit.errors import UniversalityFailure

    def fail(L):
        raise UniversalityFailure((0, 1, 2))

    monkeypatch.setattr(latkit.subalgebra, "verify_universal", fail)
    report = verify_corpus(max_n=5)
    assert report["universality"] == {"max_n": 5, "pass": False}
    assert not report["pass"]
    assert run(["verify", "corpus", "--max-n", "5"]) == 1


def test_verify_corpus_census_respects_max_n():
    from latkit.enumeration import iter_lattices
    from latkit.subalgebra import gadget_census

    report = verify_corpus(max_n=5)
    assert report["gadget_census"]["gadgets"] == gadget_census(iter_lattices(5)).gadgets == 1


def test_verify_corpus_builds_each_lattice_once(monkeypatch):
    import latkit.enumeration

    built = []
    original = latkit.enumeration._lattice_from_dwn

    def counting(dwn):
        built.append(dwn)
        return original(dwn)

    monkeypatch.setattr(latkit.enumeration, "_lattice_from_dwn", counting)
    assert verify_corpus(max_n=9)["pass"]
    assert len(built) == len(set(built)) == sum(LATTICE_COUNTS) + 222 + 1078


def test_verify_corpus_small():
    report = verify_corpus(max_n=6)
    assert report["pass"]
    assert report["counts"]["pass"]
    assert report["prop_width3"]["qualifying"] == 0  # cube needs n = 8
