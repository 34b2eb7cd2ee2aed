import time
from itertools import combinations

import pytest

from latkit import boolean, chain, linear_sum, m3, n5, product, two_by_chain
from latkit.cli import run
from latkit.core import canonical_form
from latkit.enumeration import (
    LATTICE_COUNTS,
    all_lattices,
    conjecture1_scan,
    iter_lattices,
    pocket_decomposition,
    verify_corpus,
)
from latkit.errors import InvariantViolated, SizeCapExceeded
from latkit.properties import whitman_w
from oracles import oracle_find_isomorphism, oracle_lattice_census, oracle_minimal_bounds


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
            assert oracle_find_isomorphism(L, K) is None


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
    assert canonical_form(pentagon_a)[0] == canonical_form(pentagon_b)[0]
    assert canonical_form(pentagon_a)[0] != canonical_form(chain5)[0]
    # a meet-semilattice with automorphism group S_3: a bottom under three
    # two-element legs; labeled leg by leg and atoms first
    spider_a = (0b1, 0b11, 0b101, 0b1011, 0b10001, 0b110001, 0b1000101)
    spider_b = (0b1, 0b11, 0b101, 0b1001, 0b10011, 0b100101, 0b1001001)
    # legs of lengths 3, 2 and 1 instead
    uneven = (0b1, 0b11, 0b101, 0b1001, 0b10011, 0b110011, 0b1000101)
    assert canonical_form(spider_a)[0] == canonical_form(spider_b)[0]
    assert canonical_form(spider_a)[0] != canonical_form(uneven)[0]


def test_cap_enforced():
    with pytest.raises(SizeCapExceeded):
        all_lattices(10)
    with pytest.raises(SizeCapExceeded):
        all_lattices(0)
    assert len(all_lattices(10, cap=10)) == 5994


def test_iter_lattices_checks_the_cap_first(monkeypatch, capsys):
    def never(k):
        raise AssertionError("a level was generated before the cap check")

    monkeypatch.setattr("latkit.enumeration._semilattices", never)
    with pytest.raises(SizeCapExceeded, match="10 elements exceeds cap 9"):
        list(iter_lattices(10))
    for argv in (["verify", "gj"], ["scan", "conjecture1"], ["gadget-census"]):
        assert run(argv + ["--max-n", "10"]) == 2
    assert capsys.readouterr().err.count("10 elements exceeds cap 9") == 3
    with pytest.raises(SizeCapExceeded, match="max_n=-1 is below 1"):
        iter_lattices(-1)
    verbs = (
        ["verify", "gj"],
        ["verify", "corpus"],
        ["scan", "conjecture1"],
        ["gadget-census"],
        ["enum"],
    )
    for argv in verbs:
        assert run(argv + ["--max-n", "0"]) == 2
    assert capsys.readouterr().err == "error: max_n=0 is below 1\n" * len(verbs)


def test_element_cap_is_checked_before_enumerating(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("LATKIT_MAX_N", "4")
    emit = tmp_path / "out"
    assert run(["enum", "--max-n", "6", "--emit", str(emit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: 6 elements exceeds cap 4\n"
    assert not emit.exists()

    def never(k):
        raise AssertionError("a level was generated before the cap check")

    monkeypatch.setattr("latkit.enumeration._semilattices", never)
    with pytest.raises(SizeCapExceeded, match="6 elements exceeds cap 4"):
        all_lattices(6)
    with pytest.raises(SizeCapExceeded, match="6 elements exceeds cap 4"):
        iter_lattices(6)


def test_iter_lattices_builds_only_what_is_consumed(monkeypatch):
    import latkit.enumeration

    built = []
    build = latkit.enumeration._lattice_from_dwn

    def counting(dwn):
        built.append(dwn)
        return build(dwn)

    monkeypatch.setattr(latkit.enumeration, "_lattice_from_dwn", counting)
    stream = iter_lattices(9)
    first = [next(stream) for _ in range(100)]
    assert len(built) == 100  # levels 1..8 alone hold 300
    assert [L.n for L in first] == sorted(L.n for L in first)


def test_enum_holds_one_lattice_at_a_time(monkeypatch, capsys):
    import weakref

    import latkit.enumeration
    import latkit.serialize

    live, seen = weakref.WeakSet(), []
    build, dump = latkit.enumeration._lattice_from_dwn, latkit.serialize.to_json_dict

    def tracked(dwn):
        L = build(dwn)
        live.add(L)
        return L

    def recording(L):
        seen.append(len(live))
        return dump(L)

    monkeypatch.setattr(latkit.enumeration, "_lattice_from_dwn", tracked)
    monkeypatch.setattr(latkit.serialize, "to_json_dict", recording)
    assert run(["enum", "--max-n", "8"]) == 0
    assert len(seen) == 300 and max(seen) <= 2
    assert capsys.readouterr().err == "emitted 300 lattices\n"


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
    k = 2048  # n = 4096, the element cap
    L = two_by_chain(k)
    start = time.perf_counter()
    pockets, failures = pocket_decomposition(L)
    assert time.perf_counter() - start < 5
    assert failures == []
    assert [(p.zero, p.one) for p in pockets] == [(i, k + i + 1) for i in range(k - 1)]


def test_pockets_chain_prefix():
    L = linear_sum(chain(2), n5())
    pockets, failures = pocket_decomposition(L)
    assert failures == []
    assert [(p.zero, p.one) for p in pockets] == [(0, 1), (1, 2), (2, 6)]
    assert pockets[0].chain_a == ()


POCKET_FAILURES = {
    "m3": [
        ("side-not-a-chain", 0, 4, 2, 3),
        ("side-not-a-chain", 0, 4, 3, 2),
        ("gap-not-a-chain", 1, 2),
        ("uncovered-elements", (2, 3, 4)),
    ],
    "boolean3": [
        ("bad-pocket-overlap", 3, 0, (0, 1)),
        ("bad-pocket-overlap", 5, 0, (0, 4)),
        ("bad-pocket-overlap", 6, 1, ()),
        ("bad-pocket-overlap", 7, 2, (3, 7)),
        ("bad-pocket-overlap", 7, 4, (6, 7)),
        ("nonconsecutive-overlap", 0, 0, (0, 2)),
        ("nonconsecutive-overlap", 0, 1, (1, 3)),
        ("nonconsecutive-overlap", 0, 2, (2, 3)),
        ("nonconsecutive-overlap", 0, 1, (1, 5)),
        ("nonconsecutive-overlap", 0, 4, (4, 5)),
        ("nonconsecutive-overlap", 0, 2, (2, 6)),
        ("nonconsecutive-overlap", 0, 4, (4, 6)),
        ("nonconsecutive-overlap", 1, 4, (5, 7)),
    ],
    "c3xc3": [
        ("bad-pocket-overlap", 5, 3, (4,)),
        ("nonconsecutive-overlap", 0, 3, (3, 4)),
        ("nonconsecutive-overlap", 0, 4, (4,)),
        ("nonconsecutive-overlap", 1, 4, (4, 5)),
    ],
}


@pytest.mark.parametrize(
    "name,L",
    [("m3", m3()), ("boolean3", boolean(3)), ("c3xc3", product(chain(3), chain(3)))],
)
def test_pocket_failures_pinned(name, L):
    """The failure paths: witnesses on lattices that are not width-two
    pocket chains, pinned as the decomposition reports them."""
    assert pocket_decomposition(L)[1] == POCKET_FAILURES[name]


def test_pocket_intervals_match_the_oracle(stream9):
    """The intervals taken from pairs of upper covers are the minimal
    [x ^ y, x v y] over all incomparable pairs: each shows up as a
    pocket with sides or in a failure of the per-pocket check."""
    for L in stream9:
        pockets, failures = pocket_decomposition(L)
        reported = {(p.zero, p.one) for p in pockets if p.chain_a or p.chain_b}
        reported |= {(f[1], f[2]) for f in failures if f[0] == "side-not-a-chain"}
        assert reported == oracle_minimal_bounds(L), L


def test_pocket_laws_revalidate(stream9):
    """What minimality proves of every pocket with sides, on every lattice:
    A is a chain, B is not empty, and each cross pair is incomparable with
    meet zero and join one.  Width-two (W) lattices decompose cleanly."""
    for L in stream9:
        pockets, failures = pocket_decomposition(L)
        for p in pockets:
            if not (p.chain_a or p.chain_b):
                continue
            assert p.chain_b, (L, p)
            for x, y in combinations(p.chain_a, 2):
                assert not L.incomparable(x, y), (L, p)
            for a in p.chain_a:
                for b in p.chain_b:
                    assert L.incomparable(a, b), (L, p)
                    assert L.join(a, b) == p.one
                    assert L.meet(a, b) == p.zero
        if L.width() == 2 and whitman_w(L).verdict:
            assert failures == []


def test_conjecture_scan():
    report = conjecture1_scan(8)
    assert report.scanned == 300
    assert report.width2_w == 75
    assert report.sd_failures == []
    assert report.decomposition_failures == []
    assert len(report.entries) == 75
    payload = report.to_json_dict()
    assert payload["width2_whitman"] == 75


def test_verify_corpus_reads_width2_off_the_tags(monkeypatch):
    # the TwoByChain tag is granted by the rail map constructive_iso_2xc
    # returns, so verify_corpus needs no second call
    import json
    import pathlib

    import latkit.classifier

    def fail(L):
        raise InvariantViolated("constructive_iso_2xc was called")

    monkeypatch.setattr(latkit.classifier, "constructive_iso_2xc", fail)
    golden = pathlib.Path(__file__).parent / "golden" / "verify_corpus_max_n_9.txt"
    assert verify_corpus(max_n=9) == json.loads(golden.read_text(encoding="utf-8"))


def test_verify_corpus_counts_m3n5_disagreements(monkeypatch):
    import latkit.properties
    from latkit.enumeration import iter_lattices

    # a modular checker that always says no disagrees on every N5-free lattice
    fake = latkit.properties.PropertyReport("modular", False, (0, 0, 0))
    monkeypatch.setattr(latkit.properties, "_modular", lambda L: False)
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


def test_verify_corpus_holds_one_lattice_at_a_time(monkeypatch):
    import weakref

    import latkit.classifier
    import latkit.enumeration
    import latkit.subalgebra

    live, seen = weakref.WeakSet(), []
    build = latkit.enumeration._lattice_from_dwn
    theorem, census = latkit.classifier.check_theorem, latkit.subalgebra.census_one

    def tracked(dwn):
        L = build(dwn)
        live.add(L)
        return L

    def recording(check):
        def wrapper(L):
            seen.append(len(live))
            return check(L)

        return wrapper

    monkeypatch.setattr(latkit.enumeration, "_lattice_from_dwn", tracked)
    monkeypatch.setattr(latkit.classifier, "check_theorem", recording(theorem))
    monkeypatch.setattr(latkit.subalgebra, "census_one", recording(census))
    assert verify_corpus(max_n=9)["prop_width3"]["scanned"] == 1378
    assert len(seen) == 1378 + 300 and max(seen) <= 2


def test_verify_corpus_small():
    report = verify_corpus(max_n=6)
    assert report["pass"]
    assert report["counts"]["pass"]
    assert report["prop_width3"]["qualifying"] == 0  # cube needs n = 8
