"""Workload ``terms``: the free-lattice word problem.

The benchmark's own seeded generator writes PAIRS term pairs as strings.
Terms alternate join and meet at every level, have nesting depth exactly
6..10 (cycling with the pair index) and LEAVES_PER_LEVEL leaves per
level, over 3 or 4 generators (alternating).  Pairs come in four kinds,
in fixed rotation, so that every round holds the same mix:

0. s and t independent;
1. t = s + u, so s <= t;
2. t = s * u, so t <= s;
3. t = s' * (s' + u) with s' a reordering of s, so s = t.

One operation is one pair: parse both strings, free_leq both ways, and
canonical of both terms.  free_leq's memo starts empty in each round.
"""

import random

import latkit.core as core
import latkit.freeterm as freeterm
import latkit.subalgebra as subalgebra

PAIRS = 2000
DEPTHS = (6, 7, 8, 9, 10)
LEAVES_PER_LEVEL = 3
GENERATORS = ("xyz", "xyzw")


def _tree(rng, depth, leaves, gens):
    """Random term tree with nesting depth exactly ``depth`` and exactly
    ``leaves`` generator occurrences; ``depth + 1 <= leaves <= 3**depth``."""
    if depth == 0:
        return rng.choice(gens)
    spare = leaves - depth  # leaves left after the spine child's minimum
    arity = 2 if spare < 2 else rng.choice((2, 3))
    depths = [depth - 1]
    for later in range(arity - 2, -1, -1):  # `later` children still follow
        child = min(rng.randrange(depth), spare - later - 1)
        depths.append(child)
        spare -= child + 1
    if sum(3**d for d in depths) < leaves:
        depths = [depth - 1] * 3  # the only shape with room for this many leaves
    low = [d + 1 for d in depths]
    high = [3**d for d in depths]
    alloc = list(low)
    for _ in range(leaves - sum(low)):
        open_slots = [i for i in range(len(depths)) if alloc[i] < high[i]]
        alloc[rng.choice(open_slots)] += 1
    return [_tree(rng, d, m, gens) for d, m in zip(depths, alloc)]


def _format(tree, op, rng=None):
    """Alternating operators from ``op`` down; with ``rng`` the children
    of every node are reordered (the value is unchanged)."""
    if isinstance(tree, str):
        return tree
    other = "*" if op == "+" else "+"
    parts = [_format(child, other, rng) for child in tree]
    if rng is not None:
        rng.shuffle(parts)
    return op.join(p if len(p) == 1 else f"({p})" for p in parts)


def make_pairs(rng):
    pairs = []
    for i in range(PAIRS):
        depth = DEPTHS[i % len(DEPTHS)]
        gens = GENERATORS[i // len(DEPTHS) % len(GENERATORS)]
        kind = i % 4
        op = "+" if i // 4 % 2 == 0 else "*"
        s_tree = _tree(rng, depth, LEAVES_PER_LEVEL * depth, gens)
        s = _format(s_tree, op)
        if kind == 0:
            t = _format(_tree(rng, depth, LEAVES_PER_LEVEL * depth, gens), op)
        else:
            u = _format(_tree(rng, depth // 2, depth, gens), op)
            if kind == 1:
                t = f"({s})+({u})"
            elif kind == 2:
                t = f"({s})*({u})"
            else:
                s2 = _format(s_tree, op, rng)
                t = f"({s2})*(({s2})+({u}))"
        pairs.append((kind, s, t))
    return pairs


def setup(seed, round_index, workdir):
    rng = random.Random(f"terms:{seed}:{round_index}")
    return {"pairs": make_pairs(rng), "seed": seed, "round": round_index}


def one_pair(s_text, t_text):
    s = freeterm.parse(s_text)
    t = freeterm.parse(t_text)
    return s, t, freeterm.free_leq(s, t), freeterm.free_leq(t, s), freeterm.canonical(s), freeterm.canonical(t)


def run(state, ops):
    return [ops.run(one_pair, s, t) for _, s, t in state["pairs"]]


def counters():
    info = freeterm.free_leq.cache_info()
    lookups = info.hits + info.misses
    return {
        "freeterm.cache_hits": info.hits,
        "freeterm.cache_misses": info.misses,
        "freeterm.cache_hit_ratio": info.hits / lookups if lookups else 0.0,
        "freeterm.cache_entries": info.currsize,
    }


# -- checks (outside the timed phase) --------------------------------------


def _lattices():
    """Small lattices in which a free-lattice inequality must hold under
    every assignment: FL(P), N5, M3, 2 x C_3 and the cube.  Pair i is
    evaluated in lattice i mod 5 under a seeded assignment."""
    build = core.FiniteLattice.from_covers
    return [
        subalgebra.flp_nine(),
        build(5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)]),
        build(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
        build(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]),
        build(8, [(m, m | 1 << i) for m in range(8) for i in range(3) if not m >> i & 1]),
    ]


def check(state, outputs):
    problems = []
    lattices = _lattices()
    rng = random.Random(f"terms-check:{state['seed']}:{state['round']}")
    known = {1: (True, None), 2: (None, True), 3: (True, True)}
    for i, ((kind, s_text, t_text), out) in enumerate(zip(state["pairs"], outputs)):
        if out is None:
            continue
        s, t, st, ts, cs, ct = out
        want_st, want_ts = known.get(kind, (None, None))
        if (want_st is not None and st != want_st) or (want_ts is not None and ts != want_ts):
            problems.append(f"kind {kind} pair: free_leq gave ({st}, {ts}) on {s_text!r} vs {t_text!r}")
        if (cs == ct) != (st and ts):
            problems.append(f"canonical forms equal={cs == ct} but free_eq={st and ts}: {s_text!r} vs {t_text!r}")
        for term, canon in ((s, cs), (t, ct)):
            if freeterm.canonical(canon) != canon:
                problems.append(f"canonical is not idempotent on {freeterm.format_term(term)!r}")
            if not freeterm.free_eq(canon, term):
                problems.append(f"canonical form not free-equal to {freeterm.format_term(term)!r}")
        L = lattices[i % len(lattices)]
        env = {g: rng.randrange(L.n) for g in sorted(freeterm.generators(s) | freeterm.generators(t))}
        vs, vt = freeterm.eval_term(s, L, env), freeterm.eval_term(t, L, env)
        if st and not L.le(vs, vt) or ts and not L.le(vt, vs):
            problems.append(f"free_leq unsound in a {L.n}-element lattice: {s_text!r} vs {t_text!r}")
        if freeterm.eval_term(cs, L, env) != vs or freeterm.eval_term(ct, L, env) != vt:
            problems.append(f"canonical form changes the value in a {L.n}-element lattice")
        if len(problems) > 20:
            break
    return problems
