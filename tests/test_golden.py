"""Byte-for-byte CLI goldens.

The files under tests/golden/ are the stdout of

    latkit enum --max-n 8
    latkit gadget-census --max-n 8
    latkit gadget FLP.json 4 2 6      # flp_nine() saved, generators A, B, C
    latkit verify corpus --max-n 9
    latkit verify gj --max-n 8
    latkit check FILE --property P     # every P, then dseq FILE, on CORPUS
    latkit ladder split SPEC --radius R  # LADDER_RUNS, in order
    latkit ladder split SPEC --radius R [--a A --b B]  # LADDER_CORPUS_RUNS
    latkit classify FILE                 # on CLASSIFY_CORPUS
    latkit render FILE                   # on CORPUS
    latkit free leq S T [--json]         # FREE_PAIRS, then
    latkit free canon T [--json]         # FREE_TERMS

the free-term library output on seeded random pairs (free_random_terms.txt,
see _free_random_lines), and the sha256 of the stdout of ``latkit enum --max-n 10 --cap 10`` and
of ``latkit scan conjecture1 --max-n 9 --full``.  A refactor of the
enumerator, of canonical labelling or of the verification driver must
leave them unchanged: enumeration order, representatives, gadget iso
classes and every section of the corpus report show up in these bytes; so do the
checkers' witnesses, the D-sequence layers and the ladder coordinates.
"""

import hashlib
import json
import random
from pathlib import Path

from latkit import (
    FiniteLattice,
    boolean,
    chain,
    cube3,
    linear_sum,
    m3,
    n5,
    product,
    save_lattice,
    two_by_chain,
)
from latkit.cli import PROPERTIES, run
from latkit.freeterm import Join, Meet, canonical, format_term, free_leq, random_term
from latkit.ladder import decorate, window
from latkit.subalgebra import flp_nine
from test_acceptance import _split_corpus

GOLDEN = Path(__file__).parent / "golden"


def _stdout(argv, capsys):
    capsys.readouterr()
    assert run(argv) == 0
    return capsys.readouterr().out


def test_golden_enum_max_n_8(capsys):
    expected = (GOLDEN / "enum_max_n_8.txt").read_text(encoding="utf-8")
    assert _stdout(["enum", "--max-n", "8"], capsys) == expected


def test_golden_gadget_census_max_n_8(capsys):
    expected = (GOLDEN / "gadget_census_max_n_8.txt").read_text(encoding="utf-8")
    assert _stdout(["gadget-census", "--max-n", "8"], capsys) == expected


def test_golden_gadget_flp_nine(tmp_path, capsys):
    F = flp_nine()
    path = tmp_path / "flp.json"
    save_lattice(F, path)
    a, b, c = (str(F.names.index(name)) for name in "ABC")
    expected = (GOLDEN / "gadget_flp_nine.txt").read_text(encoding="utf-8")
    assert _stdout(["gadget", str(path), a, b, c], capsys) == expected


def test_golden_enum_max_n_10_sha256(capsys):
    expected = (GOLDEN / "enum_max_n_10_cap_10.sha256").read_text().strip()
    out = _stdout(["enum", "--max-n", "10", "--cap", "10"], capsys)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


def test_golden_verify_corpus_max_n_9(capsys):
    expected = (GOLDEN / "verify_corpus_max_n_9.txt").read_text(encoding="utf-8")
    assert _stdout(["verify", "corpus", "--max-n", "9"], capsys) == expected


def test_golden_verify_gj_max_n_8(capsys):
    expected = (GOLDEN / "verify_gj_max_n_8.txt").read_text(encoding="utf-8")
    assert _stdout(["verify", "gj", "--max-n", "8"], capsys) == expected


def test_golden_scan_conjecture1_max_n_9_full_sha256(capsys):
    expected = (GOLDEN / "scan_conjecture1_max_n_9_full.sha256").read_text().strip()
    out = _stdout(["scan", "conjecture1", "--max-n", "9", "--full"], capsys)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


def _diamond(k):
    return FiniteLattice.from_covers(
        k + 2, [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    )


CORPUS = [
    two_by_chain(6),
    boolean(4),
    linear_sum(boolean(3), n5()),
    _diamond(7),
    product(chain(3), chain(4)),
    flp_nine(),
]

# (radius, decoration spec or None for the bare window)
LADDER_RUNS = [(r, None) for r in (2, 3, 4)] + [
    (3, {"insert": [{"case": case, "at": 0}]}) for case in (1, 2, 3)
]

# (radius, spec, column j of the cover (0,j) < (1,j)): the acceptance
# corpus at the central cover, then off-centre covers on both halves
LADDER_CORPUS_RUNS = [(radius, spec, 0) for radius, spec in _split_corpus()] + [
    (3, None, -2),
    (4, {"insert": [{"case": 1, "at": 0}]}, -1),
    (4, {"insert": [{"case": 2, "at": -2}]}, 2),
    (4, {"insert": [{"case": 3, "at": 1}]}, 3),
    (5, {"insert": [{"between": [[1, -2], [1, -1]], "id": "hi"}]}, -3),
]


def test_golden_check_and_dseq(tmp_path, capsys):
    out = []
    for i, L in enumerate(CORPUS):
        path = str(tmp_path / f"lattice{i}.json")
        save_lattice(L, path)
        out += [_stdout(["check", path, "--property", p], capsys) for p in PROPERTIES]
        out.append(_stdout(["dseq", path], capsys))
    expected = (GOLDEN / "check_dseq_corpus.txt").read_text(encoding="utf-8")
    assert "".join(out) == expected


def _ladder_stdout(runs, tmp_path, capsys):
    out = []
    for i, (radius, spec, j) in enumerate(runs):
        path, W = "none", window(radius)
        if spec is not None:
            path = str(tmp_path / f"spec{i}.json")
            Path(path).write_text(json.dumps(spec), encoding="utf-8")
            W = decorate(W, spec)
        cover = ["--a", str(W.rail(0, j)), "--b", str(W.rail(1, j))] if j else []
        out.append(_stdout(["ladder", "split", path, "--radius", str(radius), *cover], capsys))
    return "".join(out)


def test_golden_ladder_split(tmp_path, capsys):
    expected = (GOLDEN / "ladder_split.txt").read_text(encoding="utf-8")
    runs = [(radius, spec, 0) for radius, spec in LADDER_RUNS]
    assert _ladder_stdout(runs, tmp_path, capsys) == expected


def test_golden_ladder_split_corpus(tmp_path, capsys):
    expected = (GOLDEN / "ladder_split_corpus.txt").read_text(encoding="utf-8")
    assert _ladder_stdout(LADDER_CORPUS_RUNS, tmp_path, capsys) == expected


CLASSIFY_CORPUS = CORPUS + [
    chain(5),
    two_by_chain(3),
    cube3(),
    linear_sum(two_by_chain(3), cube3()),
    linear_sum(chain(3), linear_sum(two_by_chain(2), chain(2))),
    linear_sum(cube3(), two_by_chain(4)),
    m3(),
    product(chain(2), chain(3)),
]

FREE_PAIRS = [
    ("x", "x+y"),
    ("x*y", "x"),
    ("x+y", "x*y"),
    ("x*(y+z)", "x*y+x*z"),
    ("x*y+x*z", "x*(y+z)"),
    ("(x+y)*(x+z)", "x+y*z"),
    ("x*(x+y)", "x"),
    ("(a+b)*(c+d)", "a*c+b+d"),
    ("x*y*z", "(x+y)*(y+z)*(x+z)"),
]

FREE_TERMS = [
    "x",
    "x+x*y",
    "x*(x+y)",
    "x*y+x*z+y*z",
    "(x+y)*(x+z)*(y+z)",
    "x+y*(x+z)",
    "(a*b+c)*(a+b*c)+a*c",
    "x*(y+x*(z+x*y))",
]


def test_golden_classify(tmp_path, capsys):
    out = []
    for i, L in enumerate(CLASSIFY_CORPUS):
        path = str(tmp_path / f"lattice{i}.json")
        save_lattice(L, path)
        out.append(_stdout(["classify", path], capsys))
    expected = (GOLDEN / "classify_corpus.txt").read_text(encoding="utf-8")
    assert "".join(out) == expected


def test_golden_render(tmp_path, capsys):
    out = []
    for i, L in enumerate(CORPUS):
        path = str(tmp_path / f"lattice{i}.json")
        save_lattice(L, path)
        out.append(_stdout(["render", path], capsys))
    expected = (GOLDEN / "render_corpus.txt").read_text(encoding="utf-8")
    assert "".join(out) == expected


def test_golden_free(capsys):
    out = []
    for flags in ([], ["--json"]):
        out += [_stdout(["free", "leq", s, t, *flags], capsys) for s, t in FREE_PAIRS]
        out += [_stdout(["free", "canon", t, *flags], capsys) for t in FREE_TERMS]
    expected = (GOLDEN / "free_terms.txt").read_text(encoding="utf-8")
    assert "".join(out) == expected


def _free_random_lines(pairs=300):
    """One line per seeded random_term pair (s, t): both terms, the two
    free_leq verdicts, and both canonical forms.  Every third t is s + u
    and every third s * u, so both verdicts are often true."""
    rng = random.Random(2015)
    gens = ["w", "x", "y", "z"]
    lines = []
    for i in range(pairs):
        s = random_term(rng, gens, 4)
        t = random_term(rng, gens, 4)
        if i % 3 == 1:
            t = Join([s, t])
        elif i % 3 == 2:
            t = Meet([s, t])
        verdicts = f"{free_leq(s, t):d}{free_leq(t, s):d}"
        forms = (format_term(u) for u in (s, t, canonical(s), canonical(t)))
        lines.append(" ".join([verdicts, *forms]) + "\n")
    return lines


def test_golden_free_random_terms():
    expected = (GOLDEN / "free_random_terms.txt").read_text(encoding="utf-8")
    assert "".join(_free_random_lines()) == expected
