"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line.  Run with -s to see the lines and timings."""

import json
import random
import time

import pytest

from latkit import (
    cube3,
    m3,
    n5,
    two_by_chain,
)
from latkit.classifier import check_theorem, constructive_iso_2xc
from latkit.enumeration import (
    LATTICE_COUNTS,
    all_lattices,
    conjecture1_scan,
    pocket_decomposition,
)
from latkit.errors import SplitObstruction
from latkit.freeterm import (
    Join,
    Meet,
    canonical,
    eval_term,
    free_eq,
    free_leq,
    generators,
    random_term,
)
from latkit.jonsson import d_sequence, min_join_covers
from latkit.ladder import (
    decorate,
    extract_ladder,
    ladder_split,
    natural_chains,
    window,
)
from latkit.properties import (
    find_forbidden,
    is_distributive,
    is_modular,
    is_semidistributive,
    whitman_w,
)
from latkit.subalgebra import gadget_census, verify_universal
from oracles import (
    oracle_d_layers,
    oracle_find_isomorphism,
    oracle_lattice_census,
    oracle_min_join_covers,
    prime_interval_exclusion_scan,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_m3n5_concordance(stream8):
    start = time.time()
    disagreements = 0
    for L in stream8:
        n5_found = find_forbidden(L, "N5") is not None
        m3_found = find_forbidden(L, "M3") is not None
        if is_modular(L).verdict != (not n5_found):
            disagreements += 1
        if is_distributive(L).verdict != (not n5_found and not m3_found):
            disagreements += 1
    elapsed = time.time() - start
    report(
        1,
        disagreements == 0 and elapsed < 120,
        f"M3-N5 concordance over {len(stream8)} lattices (n <= 8): "
        f"{disagreements} disagreements in {elapsed:.1f}s",
    )


def test_criterion_2_width3_is_the_cube(stream9):
    qualifiers = [
        L
        for L in stream9
        if len(L.linear_decompose()) == 1
        and is_distributive(L).verdict
        and not L.doubly_reducibles()
        and L.width() == 3
    ]
    ok = len(qualifiers) == 1 and oracle_find_isomorphism(qualifiers[0], cube3()) is not None
    report(
        2,
        ok,
        f"width-3 distributive DR-free indecomposable classes (n <= 9): "
        f"{len(qualifiers)}, cube iso: {ok}",
    )


def test_criterion_3_width2_ladders(stream9):
    instances = 0
    for L in stream9:
        qualifies = (
            len(L.linear_decompose()) == 1
            and is_modular(L).verdict
            and not L.doubly_reducibles()
            and L.width() == 2
        )
        ladder_like = (
            L.n >= 4
            and L.n % 2 == 0
            and oracle_find_isomorphism(L, two_by_chain(L.n // 2)) is not None
        )
        assert qualifies == ladder_like, f"mismatch on {sorted(L.covers)}"
        if qualifies:
            instances += 1
            f = constructive_iso_2xc(L)
            target = two_by_chain(L.n // 2)
            assert sorted(f) == list(range(L.n))
            for x in range(L.n):
                for y in range(L.n):
                    assert f[L.join(x, y)] == target.join(f[x], f[y])
                    assert f[L.meet(x, y)] == target.meet(f[x], f[y])
            assert oracle_find_isomorphism(L, target) is not None
    report(
        3,
        instances > 0,
        f"width-2 modular DR-free indecomposable lattices (n <= 9): "
        f"{instances} instances, constructive isomorphism verified on each",
    )


def test_criterion_4_structure_theorem(stream9):
    for L in stream9:
        verdict = check_theorem(L)  # raises TheoremDisagreement on failure
        shape = all(b.tag != "Other" for b in verdict.blocks)
        assert verdict.passes == shape == (verdict.distributive and verdict.dr_free)
    report(
        4,
        True,
        f"structure-theorem biconditional agrees on all {len(stream9)} "
        "lattices (n <= 9)",
    )


def test_criterion_5_gadget_bounds(stream8, stream6):
    census = gadget_census(stream8)
    classes, fingerprints = len(census.iso_classes), len(census.fingerprints)
    for L in stream6:
        verify_universal(L)  # raises UniversalityFailure on any triple
    ok = classes <= 6 and fingerprints <= 7
    report(
        5,
        ok,
        f"gadget census (n <= 8): {classes} iso classes (<= 6), "
        f"{fingerprints} fingerprints (<= 7); universal property verified "
        f"on the full n <= 6 catalog ({len(stream6)} lattices)",
    )


def test_criterion_6_free_term_soundness():
    start = time.time()
    rng = random.Random(2026)
    gens = ["a", "b", "c", "d"]
    lattices = [L for n in range(1, 6) for L in all_lattices(n)]
    violations = 0
    leq_hits = 0
    pairs = []
    for _ in range(1000):
        s = random_term(rng, gens, 5)
        t = random_term(rng, gens, 5)
        pairs.append((s, t))
        if canonical(canonical(s)) != canonical(s):
            violations += 1
        if free_leq(s, t):
            leq_hits += 1
            names = sorted(generators(s) | generators(t))
            for L in lattices:
                for _ in range(10):
                    assignment = {g: rng.randrange(L.n) for g in names}
                    if not L.le(
                        eval_term(s, L, assignment), eval_term(t, L, assignment)
                    ):
                        violations += 1
    # sampled (W) instances
    w_hits = 0
    for _ in range(400):
        a, b, c, d = (random_term(rng, gens, 3) for _ in range(4))
        ab, cd = Meet([a, b]), Join([c, d])
        if free_leq(ab, cd):
            w_hits += 1
            if not (
                free_leq(a, cd)
                or free_leq(b, cd)
                or free_leq(ab, c)
                or free_leq(ab, d)
            ):
                violations += 1
    # sampled SD instances (random plus constructed premises)
    sd_join_hits = sd_meet_hits = 0
    for _ in range(300):
        a = random_term(rng, gens, 3)
        b = random_term(rng, gens, 3)
        r = random_term(rng, gens, 2)
        c = Meet([Join([a, b]), Join([b, r])])
        if free_eq(Join([a, b]), Join([a, c])):
            sd_join_hits += 1
            if not free_eq(Join([a, b]), Join([a, Meet([b, c])])):
                violations += 1
        cd = Join([Meet([a, b]), Meet([b, r])])
        if free_eq(Meet([a, b]), Meet([a, cd])):
            sd_meet_hits += 1
            if not free_eq(Meet([a, b]), Meet([a, Join([b, cd])])):
                violations += 1
    elapsed = time.time() - start
    ok = (
        violations == 0
        and leq_hits > 0
        and w_hits > 0
        and sd_join_hits > 0
        and sd_meet_hits > 0
        and elapsed < 120
    )
    report(
        6,
        ok,
        f"free-term soundness: 1000 pairs, {leq_hits} comparable, "
        f"{w_hits} (W) instances, {sd_join_hits}/{sd_meet_hits} SD "
        f"instances, {violations} violations in {elapsed:.1f}s",
    )


def test_criterion_7_d_sequence(stream7, stream8):
    M3, N5 = m3(), n5()
    ds_m3 = d_sequence(M3)
    ds_n5 = d_sequence(N5)
    ok = (
        ds_m3.d_full == (M3.bottom,)
        and ds_m3.quadrant == "(!=,!=)"
        and ds_n5.d_full == tuple(range(5))
        and ds_n5.quadrant == "(=,=)"
    )
    for L in stream8:
        if is_distributive(L).verdict and d_sequence(L).quadrant != "(=,=)":
            ok = False
    oracle_checked = 0
    for L in stream7:
        for x in range(L.n):
            if min_join_covers(L, x) != oracle_min_join_covers(L, x):
                ok = False
        if [frozenset(s) for s in d_sequence(L).layers] != [
            frozenset(s) for s in oracle_d_layers(L)
        ]:
            ok = False
        oracle_checked += 1
    report(
        7,
        ok,
        f"D-sequence: D(M3)={{bottom}} ({ds_m3.quadrant}), D(N5)=N5 "
        f"({ds_n5.quadrant}), distributive quadrants (=,=) at n <= 8, "
        f"all-subsets oracle agreement on {oracle_checked} lattices (n <= 7)",
    )


def _split_corpus():
    """>= 20 decorated windows, radius 3..5, all attachment cases and
    rail subdivisions on both rails."""
    corpus = []
    for radius in (3, 4, 5):
        for case in (1, 2, 3):
            corpus.append((radius, {"insert": [{"case": case, "at": 0}]}))
        corpus.append(
            (radius, {"insert": [{"between": [[0, 0], [0, 1]], "id": "lo"}]})
        )
        corpus.append(
            (radius, {"insert": [{"between": [[1, -2], [1, -1]], "id": "hi"}]})
        )
    corpus.append((4, {"insert": [{"case": 1, "at": -2}]}))
    corpus.append((4, {"insert": [{"case": 2, "at": 1}]}))
    corpus.append((4, {"insert": [{"case": 3, "at": -1}]}))
    corpus.append(
        (
            4,
            {
                "insert": [
                    {"case": 1, "at": -2},
                    {"between": [[1, 1], [1, 2]], "id": "hi"},
                ]
            },
        )
    )
    corpus.append(
        (
            5,
            {
                "insert": [
                    {"case": 2, "at": -3},
                    {"between": [[0, 2], [0, 3]], "id": "lo"},
                ]
            },
        )
    )
    corpus.append(
        (
            5,
            {
                "insert": [
                    {"between": [[0, -2], [0, -1]], "id": "lo"},
                    {"between": [[1, 2], [1, 3]], "id": "hi"},
                ]
            },
        )
    )
    return corpus


def _selection_oracle(L, chain, value_of):
    """Largest index per successive value, recomputed independently."""
    picked = []
    for pos, member in enumerate(chain):
        value = value_of(member)
        is_last = pos + 1 == len(chain) or value_of(chain[pos + 1]) != value
        if is_last:
            picked.append(member)
    return picked


def test_criterion_8_ladder_corpus():
    corpus = _split_corpus()
    assert len(corpus) >= 20
    cases_seen = set()
    for radius, spec in corpus:
        W = decorate(window(radius), spec)
        a, b = W.rail(0, 0), W.rail(1, 0)
        up, down = natural_chains(W, a, b)
        ladder = extract_ladder(W, a, b)
        assert prime_interval_exclusion_scan(W, ladder) == []
        L = W.lattice
        assert list(ladder.up_selected) == _selection_oracle(
            L, up, lambda x: L.join(x, b)
        )
        assert list(ladder.down_selected) == _selection_oracle(
            L, down, lambda x: L.meet(x, a)
        )
        rep = ladder_split(W)
        assert rep.ladder == ladder
        # property (1) on B, which ladder_split derives instead of scanning
        assert not [
            (x, j)
            for x in set(rep.side_b) - ladder.elements
            for j in range(-ladder.neg, ladder.pos + 1)
            if L.le(ladder.coords[(0, j)], x) and not L.le(ladder.coords[(1, j)], x)
        ]
        for part in (rep.side_a, rep.side_b):
            members = set(part)
            for x in members:
                for y in members:
                    assert L.join(x, y) in members
                    assert L.meet(x, y) in members
        assert rep.prop1_holds
        assert rep.stable
        for item in spec["insert"]:
            if "case" in item:
                cases_seen.add(item["case"])
    assert cases_seen == {1, 2, 3}

    rejected = 0
    violators = [
        (3, {"insert": [{"between": [[1, 0], [1, 2]], "id": "dr"}]}),
        (4, {"insert": [{"between": [[0, -1], [0, 1]], "id": "dr"}]}),
        (4, {"insert": [{"between": [[0, 0], [1, 1]], "id": "diag"}]}),
    ]
    for radius, spec in violators:
        W = decorate(window(radius), spec)
        hypothesis_fails = (
            not whitman_w(W.lattice).verdict
            or not is_semidistributive(W.lattice, "both").verdict
        )
        assert hypothesis_fails  # these are engineered violators
        with pytest.raises(SplitObstruction):
            ladder_split(W)
        rejected += 1
    report(
        8,
        True,
        f"ladder corpus: {len(corpus)} decorated windows split cleanly "
        f"(cases {sorted(cases_seen)}, radii 3-5), subsequence selection "
        f"matches the oracle, {rejected} hypothesis violators rejected, "
        "0 unexplained obstructions",
    )


def test_criterion_9_enumeration_fidelity(stream6):
    computed = [len(all_lattices(n)) for n in range(1, 8)]
    oracle = [oracle_lattice_census(n)[0] for n in range(1, 8)]
    ok = computed == oracle == list(LATTICE_COUNTS)
    duplicates = 0
    for i, L in enumerate(stream6):
        for K in stream6[i + 1 :]:
            if oracle_find_isomorphism(L, K) is not None:
                duplicates += 1
    report(
        9,
        ok and duplicates == 0,
        f"counts n=1..7 {computed} match the poset-filter oracle and the "
        f"frozen values; {duplicates} isomorphic duplicates at n <= 6",
    )


def test_criterion_10_conjecture_shadow():
    first = conjecture1_scan(9)
    second = conjecture1_scan(9)
    deterministic = json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(
        second.to_json_dict(), sort_keys=True
    )
    revalidated = True
    for L, witness in first.sd_failures:
        a, b, c = witness
        join_bad = L.join(a, b) == L.join(a, c) and L.join(a, b) != L.join(
            a, L.meet(b, c)
        )
        meet_bad = L.meet(a, b) == L.meet(a, c) and L.meet(a, b) != L.meet(
            a, L.join(b, c)
        )
        if not (join_bad or meet_bad):
            revalidated = False
    for entry in first.entries:
        from latkit import FiniteLattice

        L = FiniteLattice.from_covers(entry["n"], entry["covers"])
        pockets, failures = pocket_decomposition(L)
        if [p.to_json_dict() for p in pockets] != entry["pockets"]:
            revalidated = False
        for p in pockets:
            for a in p.chain_a:
                for b in p.chain_b:
                    if L.join(a, b) != p.one or L.meet(a, b) != p.zero:
                        revalidated = False
    ok = deterministic and revalidated
    report(
        10,
        ok,
        f"conjecture-1 shadow at n <= 9: scanned {first.scanned}, "
        f"{first.width2_w} width-2 (W) lattices, {len(first.sd_failures)} "
        f"SD failures, {len(first.decomposition_failures)} pocket "
        f"failures; deterministic re-run and witness revalidation: {ok}",
    )
