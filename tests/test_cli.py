import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latkit import chain, cube3, linear_sum, m3, n5, save_lattice, two_by_chain
from latkit.cli import run
from latkit.serialize import load_lattice, to_dot


@pytest.fixture()
def n5_file(tmp_path):
    path = tmp_path / "n5.json"
    save_lattice(n5(), path)
    return str(path)


def test_check_negative_verdict_exits_zero(n5_file, capsys):
    assert run(["check", n5_file, "--property", "modular"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is False
    assert payload["witness"] == [1, 2, 3]


def test_check_bad_file_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 3, "covers": [[0, 1], [1, 2], [2, 0]]}))
    assert run(["check", str(path), "--property", "modular"]) == 2
    path.write_text("not json at all")
    assert run(["check", str(path), "--property", "modular"]) == 2
    assert run(["check", str(tmp_path / "missing.json"), "--property", "sd"]) == 2
    for names in ("abc", [1, 2, 3], ["a", "b"]):
        path.write_text(json.dumps({"n": 3, "covers": [[0, 1], [1, 2]], "names": names}))
        assert run(["check", str(path), "--property", "modular"]) == 2, names
    path.write_text('{"n": 1e400, "covers": []}')  # n reads as infinity
    assert run(["check", str(path), "--property", "modular"]) == 2


def test_check_unknown_property_exit_two(n5_file):
    assert run(["check", n5_file, "--property", "bogus"]) == 2


def test_check_reports_requested_property_name(n5_file, capsys):
    for name in ("sd", "sd-join", "sd-meet"):
        assert run(["check", n5_file, "--property", name]) == 0
        assert json.loads(capsys.readouterr().out)["property"] == name


def test_enum_unknown_property_exits_before_enumerating(monkeypatch, capsys):
    import latkit.cli

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before checking the property names")

    monkeypatch.setattr(latkit.cli, "iter_lattices", no_enumeration)
    assert run(["enum", "--max-n", "11", "--property", "whitman,nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_unknown_verb_exit_two():
    assert run(["frobnicate"]) == 2


def test_determinism_byte_identical(n5_file, capsys):
    run(["check", n5_file, "--property", "whitman"])
    first = capsys.readouterr().out
    run(["check", n5_file, "--property", "whitman"])
    second = capsys.readouterr().out
    assert first == second


def test_dseq_output(n5_file, capsys):
    assert run(["dseq", n5_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quadrant"] == "(=,=)"
    assert payload["layers"][0] == [0, 1, 2]


def test_classify_output(tmp_path, capsys):
    path = tmp_path / "l.json"
    save_lattice(linear_sum(cube3(), two_by_chain(3)), path)
    assert run(["classify", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passes"] is True
    assert [b["tag"] for b in payload["blocks"]] == ["Cube", "TwoByChain"]


def test_gadget_verb(tmp_path, capsys):
    path = tmp_path / "n5.json"
    save_lattice(n5(), path)
    assert run(["gadget", str(path), "2", "1", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 5
    assert run(["gadget", str(path), "0", "1", "3"]) == 2  # bad configuration


def test_gadget_census_verb(capsys):
    assert run(["gadget-census", "--max-n", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distinct_iso_classes"] == 1


def test_free_verbs(capsys):
    assert run(["free", "leq", "x*(y+z)", "x"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["free", "leq", "x", "y", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["leq"] is False
    assert run(["free", "canon", "x*(x+y)"]) == 0
    assert capsys.readouterr().out.strip() == "x"
    assert run(["free", "leq", "x*(", "x"]) == 2


def test_ladder_verb(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"insert": [{"case": 1, "at": 0}]}))
    assert run(["ladder", "split", str(spec), "--radius", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True
    assert run(["ladder", "split", "none", "--radius", "2"]) == 0
    capsys.readouterr()


def test_enum_verb(tmp_path, capsys):
    emit = tmp_path / "out"
    assert run(["enum", "--max-n", "5", "--width", "2", "--emit", str(emit)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    files = sorted(os.listdir(emit))
    assert len(out) == len(files) == 4
    reloaded = load_lattice(os.path.join(emit, files[0]))
    assert reloaded.width() == 2


def test_enum_filters(capsys):
    assert run(["enum", "--max-n", "5", "--property", "whitman,sd"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(json.loads(line)["n"] <= 5 for line in lines)


def test_scan_verb(capsys):
    assert run(["scan", "conjecture1", "--max-n", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sd_failures"] == []
    assert "entries" not in payload


def test_verify_gj_verb(capsys):
    assert run(["verify", "gj", "--max-n", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checked"] == 25


def test_verify_gj_counts_disagreements(monkeypatch, capsys):
    import latkit.cli
    from latkit.errors import TheoremDisagreement

    assert run(["verify", "gj", "--max-n", "6"]) == 0
    assert capsys.readouterr().out == '{"checked":25,"max_n":6,"pass":true}\n'
    calls = []
    original = latkit.cli.check_theorem

    def flaky(L):
        calls.append(L)
        if len(calls) == 7:
            raise TheoremDisagreement("sides differ")
        return original(L)

    monkeypatch.setattr(latkit.cli, "check_theorem", flaky)
    assert run(["verify", "gj", "--max-n", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == '{"checked":25,"max_n":6,"pass":false}\n'
    assert captured.err.count("disagreement") == 1 and "lattice 6" in captured.err
    assert len(calls) == 25  # the stream runs on past the disagreement


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--max-n", "4"],
        ["scan", "conjecture1", "--max-n", "5"],
        ["verify", "gj", "--max-n", "4"],
        ["verify", "corpus", "--max-n", "4"],
    ],
)
def test_json_flag_accepted_everywhere(argv, capsys):
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert run(argv + ["--json"]) == 0
    assert capsys.readouterr().out == plain


def test_render_matches_covers(tmp_path, capsys):
    path = tmp_path / "m3.json"
    save_lattice(m3(), path)
    assert run(["render", str(path)]) == 0
    text = capsys.readouterr().out
    edges = {
        tuple(map(int, line.strip().rstrip(";").replace("n", "").split(" -> ")))
        for line in text.splitlines()
        if "->" in line
    }
    assert edges == set(m3().covers)
    out = tmp_path / "m3.dot"
    assert run(["render", str(path), "-o", str(out)]) == 0
    assert out.read_text() == to_dot(m3())


def test_env_cap_respected(tmp_path, monkeypatch):
    big = tmp_path / "big.json"
    save_lattice(chain(12), big)
    monkeypatch.setenv("LATKIT_MAX_N", "10")
    assert run(["check", str(big), "--property", "modular"]) == 2
    monkeypatch.delenv("LATKIT_MAX_N")
    assert run(["check", str(big), "--property", "modular"]) == 0


def test_enum_jobs_identical_output(capsys):
    assert run(["enum", "--max-n", "5", "--property", "whitman"]) == 0
    seq = capsys.readouterr().out
    assert run(["enum", "--max-n", "5", "--property", "whitman", "--jobs", "2"]) == 0
    par = capsys.readouterr().out
    assert seq == par


def test_verify_corpus_verb(capsys):
    assert run(["verify", "corpus", "--max-n", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["counts"]["computed"] == [1, 1, 1, 2, 5]


def test_gadget_out_of_range(tmp_path):
    path = tmp_path / "n5.json"
    save_lattice(n5(), path)
    assert run(["gadget", str(path), "2", "1", "99"]) == 2


def test_ladder_bad_inputs(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("{ not json")
    assert run(["ladder", "split", str(spec)]) == 2
    assert run(["ladder", "split", "none", "--radius", "0"]) == 2
    for payload in (
        {"insert": [{"case": 2}]},
        [1, 2],
        {"insert": 3},
        {"insert": [{"case": 1, "at": [0]}]},
        {"insert": [{"between": 5}]},
        {"insert": [{"between": [[0, 0]]}]},
        {"insert": [{"between": [[0, 0], [0, 1]], "id": 7}]},
        {"insert": [{"between": [[0, 0], [0, 1]], "gt": 1}]},
        {"insert": [{"between": [[0, [0]], [0, 1]]}]},
    ):
        spec.write_text(json.dumps(payload))
        assert run(["ladder", "split", str(spec)]) == 2, payload


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)  # json's decoder raises RecursionError
    for argv in (["check", str(deep), "--property", "sd"], ["ladder", "split", str(deep)]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


# -- fuzzing the exit-code contract ------------------------------------------

_SCALAR = st.none() | st.booleans() | st.integers(-2, 9) | st.text("abn01", max_size=3)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "covers", "names", "insert", "case", "at", "between", "id", "gt", "lt"]),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)
_PAIR = st.lists(st.integers(-1, 7), min_size=2, max_size=2)
_LATTICE = st.fixed_dictionaries(
    {"n": st.integers(0, 7), "covers": st.lists(_PAIR, max_size=10)},
    optional={"names": st.lists(st.text("ab", max_size=2), max_size=8)},
)
# a bottom 0 and a top n - 1 around random pairs i < j: often a lattice
_BOUNDED = st.integers(2, 7).flatmap(
    lambda n: st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6).map(
        lambda pairs: {
            "n": n,
            "covers": [[0, i] for i in range(1, n)]
            + [[i, n - 1] for i in range(n - 1)]
            + [[i, j] for i, j in pairs if i < j < n - 1],
        }
    )
)
_ANCHOR = st.lists(st.integers(-3, 3), min_size=2, max_size=2) | st.sampled_from(["d0", "d1", "s"])
_INSERT = st.fixed_dictionaries(
    {"case": st.integers(0, 4), "at": st.integers(-3, 3)}
) | st.fixed_dictionaries(
    {"between": st.lists(_ANCHOR, min_size=2, max_size=2)},
    optional={"id": st.sampled_from(["s", "t"]), "gt": st.lists(_ANCHOR, max_size=2)},
)
_SPEC = st.fixed_dictionaries({"insert": st.lists(_INSERT, max_size=3)}) | st.lists(_INSERT, max_size=3)
_TERM = (
    st.text("xy+*() ", max_size=20)
    | st.integers(0, 44).map(lambda d: "(" * d + "x+y*z" + ")" * d)
    | st.sampled_from(["x", "x*(y+z)", "(x+y)*(x+z)", "x+y*(x+z)"])
)
# (file payload, argv with FILE standing for the file it is written to)
_RUN = st.one_of(
    st.tuples(
        _BOUNDED | _LATTICE | _JSON,
        st.sampled_from(
            [["check", "FILE", "--property", p] for p in ("modular", "sd", "whitman", "forbidden-n5")]
            + [["classify", "FILE"], ["dseq", "FILE"], ["render", "FILE"], ["gadget", "FILE", "0", "1", "2"]]
        ),
    ),
    st.tuples(
        _SPEC | _JSON,
        st.integers(0, 3).map(lambda r: ["ladder", "split", "FILE", "--radius", str(r)]),
    ),
    st.tuples(st.none(), st.tuples(_TERM, _TERM).map(lambda t: ["free", "leq", *t])),
    st.tuples(
        st.none(),
        st.tuples(_TERM, st.sampled_from([[], ["--json"]])).map(lambda t: ["free", "canon", t[0], *t[1]]),
    ),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_RUN)
def test_cli_exit_codes_on_generated_input(tmp_path, case):
    payload, argv = case
    path = tmp_path / "input.json"  # rewritten for every example
    path.write_text(json.dumps(payload))
    assert run([str(path) if arg == "FILE" else arg for arg in argv]) in (0, 2)


def _nested(depth, step):
    term = "x"
    for level in range(depth):
        term = step(term, level)
    return term


_SHAPES = {
    # one join or meet level per pair of parentheses
    "alternating": lambda t, level: f"({t})*y" if level % 2 == 0 else f"({t})+z",
    # a join and a meet level per pair of parentheses
    "doubled": lambda t, level: f"({t}*y+z)",
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_free_term_depth_limit(shape, capsys):
    from latkit.freeterm import MAX_TERM_DEPTH

    term = _nested(MAX_TERM_DEPTH, _SHAPES[shape])
    other = term.replace("x", "u")
    assert run(["free", "leq", term, term]) == 0
    assert capsys.readouterr().out == "true\n"
    assert run(["free", "leq", term, other]) == 0
    assert run(["free", "leq", other, term]) == 0
    assert run(["free", "canon", term]) == 0
    capsys.readouterr()
    deeper = _nested(MAX_TERM_DEPTH + 1, _SHAPES[shape])
    for argv in (["free", "leq", deeper, "x+y"], ["free", "canon", deeper]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "nest deeper" in err and "Traceback" not in err
