import copy
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

import latkit
from latkit import boolean, m3
from latkit.enumeration import all_lattices
from latkit.errors import TermSyntaxError, UnboundGenerator
from latkit.freeterm import (
    MAX_TERM_DEPTH,
    Join,
    Meet,
    _masks,
    canonical,
    eval_term,
    format_term,
    free_eq,
    free_leq,
    generators,
    parse,
    random_term,
    term_key,
)
from oracles import whitman_leq


def test_parse_examples():
    assert parse("x*(y+z)") == Meet(["x", Join(["y", "z"])])
    assert parse("x+y+z") == Join(["x", "y", "z"])
    assert parse("x * y * z") == Meet(["x", "y", "z"])
    assert parse("(" * MAX_TERM_DEPTH + "x" + ")" * MAX_TERM_DEPTH) == "x"


def test_parse_errors():
    with pytest.raises(TermSyntaxError):
        parse("x*(")
    with pytest.raises(TermSyntaxError):
        parse("x +")
    with pytest.raises(TermSyntaxError):
        parse("(x")
    with pytest.raises(TermSyntaxError):
        parse("x y")
    # an unexpected character is named at its own position, not at the
    # whitespace before it
    for text, char, position in (("x*$", "$", 2), ("x $", "$", 2), ("x +  %y", "%", 5)):
        with pytest.raises(TermSyntaxError) as info:
            parse(text)
        assert info.value.position == position
        assert f"unexpected character {char!r}" in str(info.value)
    with pytest.raises(TermSyntaxError) as info:
        parse("(" * (MAX_TERM_DEPTH + 1) + "x" + ")" * (MAX_TERM_DEPTH + 1))
    assert info.value.position == MAX_TERM_DEPTH


def test_format_round_trip():
    for text in ("x", "x+y", "x*y+z*w", "x*(y+z)", "(a+b)*(c+d)+e*f"):
        term = parse(text)
        assert parse(format_term(term)) == term


def test_round_trip_on_canonical_terms():
    rng = random.Random(5)
    for _ in range(200):
        term = canonical(random_term(rng, ["w", "x", "y", "z"], 4))
        assert parse(format_term(term)) == term


def test_free_leq_basics():
    assert free_leq(parse("x*(y+z)"), parse("x"))
    assert not free_leq(parse("x"), parse("y"))
    assert not free_leq(parse("x*y"), parse("z+w"))
    assert free_leq(parse("x"), parse("x+y"))
    assert free_leq(parse("x*y"), parse("x"))
    assert free_leq(parse("x*y"), parse("x+y"))


def test_free_leq_is_preorder():
    rng = random.Random(17)
    terms = [random_term(rng, ["x", "y", "z"], 4) for _ in range(60)]
    for t in terms:
        assert free_leq(t, t)
    hits = 0
    for s in terms:
        for t in terms:
            if free_leq(s, t):
                for u in terms:
                    if free_leq(t, u):
                        hits += 1
                        assert free_leq(s, u)
    assert hits > 0


def test_canonical_examples():
    assert canonical(parse("(x+y)+x")) == parse("x+y")
    assert canonical(parse("x*(x+y)")) == parse("x")
    assert canonical(parse("(s+t)*s")) == canonical(parse("s"))
    assert canonical(parse("x+x")) == parse("x")


def test_canonical_component_rewrite():
    # a meet component below the whole join is promoted in its place
    term = parse("(y*((y*u)+g))+g+p")
    expected = canonical(parse("y*u+g+p"))
    assert canonical(term) == expected
    # and dually for meets
    dual_term = parse("(y+((y+u)*g))*g*p")
    assert canonical(dual_term) == canonical(parse("(y+u)*g*p"))


def test_canonical_idempotent_sampled():
    rng = random.Random(7)
    for _ in range(1000):
        term = canonical(random_term(rng, ["w", "x", "y", "z"], 6))
        assert canonical(term) == term


def test_equivalent_terms_identical_trees():
    rng = random.Random(13)
    gens = ["x", "y", "z"]
    for _ in range(400):
        term = random_term(rng, gens, 4)
        base = canonical(term)
        # value-preserving mutations
        mutated = Join([term, term]) if rng.random() < 0.5 else Meet([term, term])
        assert canonical(mutated) == base
        extra = random_term(rng, gens, 2)
        absorbed = Meet([Join([term, extra]), term])
        assert canonical(absorbed) == base


def test_random_equivalent_pairs_share_canonical_form():
    rng = random.Random(3)
    gens = ["x", "y", "z"]
    checked = 0
    for _ in range(500):
        s = random_term(rng, gens, 4)
        t = random_term(rng, gens, 4)
        if free_eq(s, t):
            checked += 1
            assert canonical(s) == canonical(t)
    assert checked > 0


def test_term_key_total_order():
    keys = [
        term_key(parse(text))
        for text in ("x", "y", "x*y", "x+y", "x*(y+z)")
    ]
    assert len(set(keys)) == len(keys)
    assert term_key(parse("x")) < term_key(parse("y"))
    assert term_key(parse("x*y")) < term_key(parse("x+y"))


def test_eval_examples():
    M3 = m3()
    assert eval_term(parse("x+y"), M3, {"x": 1, "y": 2}) == 4
    assert eval_term(parse("x"), M3, {"x": 3}) == 3
    assert eval_term(parse("x*(y+z)"), M3, {"x": 1, "y": 2, "z": 3}) == 1
    with pytest.raises(UnboundGenerator):
        eval_term(parse("x+q"), M3, {"x": 1})


def test_generators():
    assert generators(parse("x*(y+z)+x")) == {"x", "y", "z"}


def test_soundness_smoke():
    rng = random.Random(29)
    gens = ["a", "b", "c"]
    lattices = [L for n in range(1, 6) for L in all_lattices(n)]
    for _ in range(150):
        s = random_term(rng, gens, 4)
        t = random_term(rng, gens, 4)
        if not free_leq(s, t):
            continue
        for L in lattices:
            for _ in range(3):
                assignment = {g: rng.randrange(L.n) for g in gens}
                vs = eval_term(s, L, assignment)
                vt = eval_term(t, L, assignment)
                assert L.le(vs, vt)


def test_whitman_condition_in_free_lattice():
    rng = random.Random(41)
    gens = ["x", "y", "z", "w"]
    hits = 0
    for _ in range(600):
        a, b, c, d = (random_term(rng, gens, 3) for _ in range(4))
        ab = canonical(Meet([a, b])) if a != b else a
        cd = canonical(Join([c, d])) if c != d else c
        if free_leq(ab, cd):
            hits += 1
            assert (
                free_leq(a, cd)
                or free_leq(b, cd)
                or free_leq(ab, c)
                or free_leq(ab, d)
            )
    assert hits > 0


def test_semidistributive_laws_in_free_lattice():
    rng = random.Random(43)
    gens = ["x", "y", "z"]
    join_hits = meet_hits = 0
    for _ in range(400):
        a = random_term(rng, gens, 3)
        b = random_term(rng, gens, 3)
        c = random_term(rng, gens, 3)
        ab, ac = Join([a, b]), Join([a, c])
        if free_eq(ab, ac):
            join_hits += 1
            assert free_eq(ab, Join([a, Meet([b, c])]))
        ab, ac = Meet([a, b]), Meet([a, c])
        if free_eq(ab, ac):
            meet_hits += 1
            assert free_eq(ab, Meet([a, Join([b, c])]))
    # constructed instances guarantee coverage: a+((a+b)*(b+r)) == a+b
    for _ in range(100):
        a = random_term(rng, gens, 3)
        b = random_term(rng, gens, 3)
        r = random_term(rng, gens, 2)
        c = Meet([Join([a, b]), Join([b, r])])
        if free_eq(Join([a, b]), Join([a, c])):
            join_hits += 1
            assert free_eq(Join([a, b]), Join([a, Meet([b, c])]))
    assert join_hits > 0 and meet_hits > 0


def test_lattice_laws_up_to_equivalence():
    rng = random.Random(47)
    gens = ["x", "y", "z"]
    for _ in range(200):
        s = random_term(rng, gens, 3)
        t = random_term(rng, gens, 3)
        assert canonical(Meet([Join([s, t]), s])) == canonical(s)
        assert canonical(Join([Meet([s, t]), s])) == canonical(s)


def test_built_terms_nest_no_deeper_than_parse_allows():
    text = "a+b*c"
    for _ in range(MAX_TERM_DEPTH):
        text = f"a+b*({text})"  # a join and a meet per pair of parentheses
    deepest = parse(text)
    other = parse(text.replace("c", "d"))
    assert free_leq(deepest, deepest) and not free_leq(deepest, other)
    canon = canonical(deepest)
    assert free_eq(canon, deepest)
    L = boolean(3)
    env = {"a": 1, "b": 2, "c": 4}
    assert eval_term(deepest, L, env) == eval_term(canon, L, env)
    with pytest.raises(ValueError, match="nests deeper"):
        Meet(["e", deepest])
    with pytest.raises(ValueError, match="nests deeper"):
        Meet(["e", Join(["f", deepest])])  # the join flattens
    # an alternating tree 400 deep used to overflow the stack in free_leq
    with pytest.raises(ValueError, match="nests deeper"):
        tree = "x"
        for level in range(400):
            tree = (Join if level % 2 else Meet)([tree, f"y{level}"])


def _subterms(t):
    yield t
    if not isinstance(t, str):
        for child in t.args:
            yield from _subterms(child)


def _reordered(t, rng):
    """t with the children of every node shuffled; the value is unchanged."""
    if isinstance(t, str):
        return t
    args = [_reordered(child, rng) for child in t.args]
    rng.shuffle(args)
    return type(t)(args)


def _oracle_pairs():
    """Seeded random pairs, then the four pair kinds of the benchmark's
    terms workload: independent, (s, s+u), (s, s*u) and (s, s'*(s'+u))
    with s' a reordering of s, each over 3 and 4 generators."""
    rng = random.Random(30)
    for gens in ("xyz", "xyzw"):
        for _ in range(300):
            yield gens, None, random_term(rng, gens, 4), random_term(rng, gens, 4)
        for i in range(400):
            kind, s = i % 4, random_term(rng, gens, 5)
            u = random_term(rng, gens, 2)
            if kind == 0:
                t = random_term(rng, gens, 5)
            elif kind == 1:
                t = Join([s, u])
            elif kind == 2:
                t = Meet([s, u])
            else:
                s2 = _reordered(s, rng)
                t = Meet([s2, Join([s2, u])])
            yield gens, kind, s, t


def test_free_leq_matches_whitman_oracle():
    known = {1: (True, None), 2: (None, True), 3: (True, True)}
    kinds = set()
    for gens, kind, s, t in _oracle_pairs():
        st, ts = whitman_leq(s, t), whitman_leq(t, s)
        assert (free_leq(s, t), free_leq(t, s)) == (st, ts), (s, t)
        for want, got in zip(known.get(kind, (None, None)), (st, ts)):
            assert want is None or want == got
        kinds.add((kind, st, ts))
        for sub in {*_subterms(s), *_subterms(t)}:
            below = sum(_masks(x)[0] for x in gens if whitman_leq(x, sub))
            above = sum(_masks(x)[0] for x in gens if whitman_leq(sub, x))
            assert _masks(sub) == (below, above), sub
    # every kind occurs, and the random pairs reach each verdict
    assert {k for k, _, _ in kinds} == {None, 0, 1, 2, 3}
    assert {(st, ts) for k, st, ts in kinds if k is None} == {
        (False, False), (True, False), (False, True), (True, True)
    }


def test_terms_survive_pickle_and_copy():
    term = parse("x*(y+z)")
    others = [parse(text) for text in ("x", "y+z", "x*y+x*z", "x+y", "z", "q*(x+w)")]
    # pickled in another process, whose hash seed and generator bits differ
    src = str(pathlib.Path(latkit.__file__).parents[1])
    script = (
        "import pickle, sys; from latkit.freeterm import parse; "
        "parse('w+v+z*y'); sys.stdout.buffer.write(pickle.dumps(parse('x*(y+z)')))"
    )
    env = {**os.environ, "PYTHONHASHSEED": "7", "PYTHONPATH": src}
    foreign = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True).stdout
    clones = [pickle.loads(pickle.dumps(term)), pickle.loads(foreign), copy.deepcopy(term), copy.copy(term)]
    want = [(free_leq(term, o), free_leq(o, term)) for o in others]
    for clone in clones:
        assert clone == term and hash(clone) == hash(term)
        assert (clone.lower, clone.upper, clone.depth) == (term.lower, term.upper, term.depth)
        free_leq.cache_clear()  # decide on the clone, not on term's memo entries
        assert [(free_leq(clone, o), free_leq(o, clone)) for o in others] == want
