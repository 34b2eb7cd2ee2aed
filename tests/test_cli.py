import json
import os

import pytest

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
