"""Workload ``large``: single structures at scale, one verb call per input.

The benchmark writes the lattice JSON itself, from cover lists built here
(not by latkit.catalog), with the cover list shuffled and, for the
construction inputs and M_7, the elements renumbered by a seeded random
permutation.  Timed operations:

* ``load``: serialize.load_lattice, then width and covers, on inputs of
  several hundred elements (construction: closure and tables);
* ``check FILE --property P`` through the CLI on tens to a hundred
  elements (the cubic and quartic checkers);
* ``classify FILE`` and ``dseq FILE`` through the CLI;
* canonical_key of a loaded M_7 (symmetric input for canonical labelling);
* ``ladder split`` through the CLI on bare and decorated windows.

The set of inputs and their sizes are the same on every seed; the seed
sets the numbering (where renumbered), the cover order, the decoration
columns and the order of the operations.
"""

import contextlib
import io
import json
import random
from math import comb

import latkit.cli as cli
import latkit.core as core
import latkit.serialize as serialize

PROPERTIES = ("modular", "distributive", "sd", "whitman", "forbidden-m3", "forbidden-n5")


# -- cover lists built from their definitions --------------------------------


def chain(k):
    return k, [(i, i + 1) for i in range(k - 1)]


def chain_product(a, b):
    """C_a x C_b with (i, j) numbered i*b + j."""
    covers = [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    covers += [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    return a * b, covers


def boolean(k):
    return 1 << k, [(m, m | (1 << i)) for m in range(1 << k) for i in range(k) if not m >> i & 1]


def diamond(k):
    """M_k: bottom 0, atoms 1..k, top k+1."""
    return k + 2, [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]


PENTAGON = (5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)])


def linear_sum(lower, upper):
    """lower below upper; lower's top (its last element) is covered by
    upper's bottom (its element 0)."""
    (n1, c1), (n2, c2) = lower, upper
    return n1 + n2, c1 + [(n1 - 1, n1)] + [(lo + n1, hi + n1) for lo, hi in c2]


# -- inputs with their closed-form expectations -------------------------------

DIST = {"modular": True, "distributive": True, "sd": True, "forbidden-m3": False, "forbidden-n5": False}


def inputs():
    """name -> (n, covers, expectations).  Expectations hold by theory:
    width and cover counts from the closed forms, property verdicts from
    distributivity, (W) fails where an element is doubly reducible."""
    table = {}

    def add(name, shape, **expect):
        table[name] = (shape[0], shape[1], expect)

    # construction, several hundred elements
    add("chain300", chain(300), width=1, covers=299)
    add("2xC150", chain_product(2, 150), width=2, covers=3 * 150 - 2)
    add("boolean8", boolean(8), width=comb(8, 4), covers=8 * 2 ** 7)
    add("C16xC16", chain_product(16, 16), width=16, covers=2 * 16 * 15)
    add("boolean7+N5", linear_sum(boolean(7), PENTAGON), width=comb(7, 3), covers=7 * 2 ** 6 + 1 + 5)
    # checkers, tens to a hundred elements
    add("2xC24", chain_product(2, 24), width=2, covers=3 * 24 - 2, whitman=True, classify=True, **DIST)
    add("boolean6", boolean(6), width=comb(6, 3), covers=6 * 2 ** 5, whitman=False, **DIST)
    add("C6xC8", chain_product(6, 8), width=6, covers=6 * 7 + 8 * 5, whitman=False, **DIST)
    add("C10xC10", chain_product(10, 10), width=10, covers=2 * 10 * 9, **DIST)
    add(
        "boolean5+N5",
        linear_sum(boolean(5), PENTAGON),
        width=comb(5, 2),
        covers=5 * 2 ** 4 + 1 + 5,
        modular=False,
        distributive=False,
        sd=True,
        whitman=False,
        **{"forbidden-m3": False, "forbidden-n5": True},
    )
    add(
        "M7",
        diamond(7),
        width=7,
        covers=14,
        modular=True,
        distributive=False,
        sd=False,
        whitman=True,
        classify=False,
        **{"forbidden-m3": True, "forbidden-n5": False},
    )
    add("boolean5", boolean(5), width=comb(5, 2), covers=5 * 2 ** 4, classify=False, **DIST)
    add("cube+2xC6", linear_sum(boolean(3), chain_product(2, 6)), width=3, covers=12 + 1 + 16, classify=True, **DIST)
    return table


LOADS = ("chain300", "2xC150", "boolean8", "C16xC16", "boolean7+N5")
CHECKS = [(name, prop) for name in ("2xC24", "boolean6", "C6xC8", "boolean5+N5", "M7") for prop in PROPERTIES]
CHECKS += [("C10xC10", "modular")]
CLASSIFY = ("2xC24", "boolean5", "cube+2xC6", "M7")
DSEQ = ("2xC24", "boolean5", "M7")
# Inputs whose elements the seed renumbers.  The checker, classify and dseq
# inputs keep their built numbering: a failed law exits at its least
# witness, so renumbering them moved the median call time between seeds.
RENUMBERED = set(LOADS) | {"M7"}
BARE_RADII = (2, 4, 6, 8)
DECORATED = (  # (radius, case shorthands); the seed picks the columns
    (3, (1,)),
    (4, (2, "high")),
    (5, (3, 1)),
)


def _lattice_json(n, covers, rng, renumber):
    perm = list(range(n))
    if renumber:
        rng.shuffle(perm)
    out = [[perm[lo], perm[hi]] for lo, hi in covers]
    rng.shuffle(out)
    return {"n": n, "covers": out}


def _decoration_spec(radius, cases, rng):
    columns = rng.sample(range(-radius, radius - 1), len(cases))
    items = []
    for i, (case, at) in enumerate(zip(cases, columns)):
        if case == "high":
            items.append({"between": [[1, at], [1, at + 1]], "id": f"h{i}"})
        else:
            items.append({"case": case, "at": at, "id": f"c{i}"})
    return {"insert": items}


def setup(seed, round_index, workdir):
    rng = random.Random(f"large:{seed}:{round_index}")
    workdir = workdir / f"large-{seed}-{round_index}"
    workdir.mkdir(parents=True, exist_ok=True)
    table = inputs()
    files = {}
    for name, (n, covers, _) in table.items():
        files[name] = str(workdir / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as handle:
            json.dump(_lattice_json(n, covers, rng, name in RENUMBERED), handle)
    ops = [("load", name) for name in LOADS]
    ops += [("check", name, prop) for name, prop in CHECKS]
    ops += [("classify", name) for name in CLASSIFY]
    ops += [("dseq", name) for name in DSEQ]
    ops += [("canon", "M7")]
    ops += [("ladder", r, None) for r in BARE_RADII]
    for i, (radius, cases) in enumerate(DECORATED):
        spec = _decoration_spec(radius, cases, rng)
        path = str(workdir / f"ladder{i}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        ops.append(("ladder", radius, path))
    rng.shuffle(ops)
    return {"table": table, "files": files, "ops": ops}


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _op(state, op):
    kind, files = op[0], state["files"]
    if kind == "load":
        L = serialize.load_lattice(files[op[1]])
        return L.n, len(L.covers), L.width()
    if kind == "check":
        return _cli(["check", files[op[1]], "--property", op[2]])
    if kind in ("classify", "dseq"):
        return _cli([kind, files[op[1]]])
    if kind == "canon":
        return core.canonical_key(serialize.load_lattice(files[op[1]]))
    radius, spec = op[1], op[2]
    return _cli(["ladder", "split", spec or "none", "--radius", str(radius)])


def run(state, ops):
    return [ops.run(_op, state, op) for op in state["ops"]]


# -- checks (outside the timed phase) --------------------------------------


def _ladder_problems(op, report, spec):
    radius, problems = op[1], []
    span = 2 * radius + 1
    low, high = set(range(span)), set(range(span, 2 * span))
    a, b = set(report["A"]), set(report["B"])
    # case k inserts k elements, a "between" item one
    decorations = sum(item.get("case", 1) for item in (spec or {"insert": []})["insert"])
    if a & b or len(a | b) != 2 * span + decorations:
        problems.append(f"ladder split r={radius}: A and B do not partition the window")
    if not low <= a or not high <= b:
        problems.append(f"ladder split r={radius}: a rail is split across A and B")
    if spec is None and (len(a), len(b)) != (span, span):
        problems.append(f"bare window r={radius} split into {len(a)}+{len(b)}, not {span}+{span}")
    if not report["prop1_holds"]:
        problems.append(f"ladder split r={radius}: property (1) fails")
    return problems


def check(state, outputs):
    problems = []
    table = state["table"]
    for op, out in zip(state["ops"], outputs):
        if out is None:
            continue
        kind = op[0]
        if kind == "load":
            n, _, expect = table[op[1]]
            want = (n, expect["covers"], expect["width"])
            if out != want:
                problems.append(f"load {op[1]}: (n, covers, width) = {out}, expected {want}")
            continue
        if kind == "canon":
            n, covers, _ = table[op[1]]
            reference = core.canonical_key(core.FiniteLattice.from_covers(n, covers))
            if out != reference:
                problems.append(f"canonical_key of {op[1]} depends on the numbering")
            continue
        code, text = out
        if code != 0:
            problems.append(f"{op} exited {code}")
            continue
        report = json.loads(text)
        if kind == "check":
            expected = table[op[1]][2][op[2]]
            if report["verdict"] is not expected:
                problems.append(f"check {op[1]} --property {op[2]}: {report['verdict']}, expected {expected}")
        elif kind == "classify":
            expected = table[op[1]][2]["classify"]
            if report["passes"] is not expected:
                problems.append(f"classify {op[1]}: passes={report['passes']}, expected {expected}")
        elif kind == "dseq":
            expect = table[op[1]][2]
            bounded = report["quadrant"] == "(=,=)"
            if expect.get("distributive") and not bounded:
                problems.append(f"dseq {op[1]}: a finite distributive lattice is bounded, got {report['quadrant']}")
            if bounded and not expect.get("sd"):
                problems.append(f"dseq {op[1]}: quadrant (=,=) on a lattice that is not semidistributive")
        elif kind == "ladder":
            spec = None
            if op[2]:
                with open(op[2], encoding="utf-8") as handle:
                    spec = json.load(handle)
            problems.extend(_ladder_problems(op, report, spec))
    return problems
