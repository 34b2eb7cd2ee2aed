import json

import pytest

from latkit import FiniteLattice, from_json, load_lattice, m3, n5, save_lattice, to_dot, to_json
from latkit.errors import NotALattice
from latkit.serialize import from_json_dict, to_json_dict


def test_json_round_trip():
    L = n5()
    reloaded = from_json(to_json(L))
    assert reloaded.n == L.n
    assert sorted(reloaded.covers) == sorted(L.covers)


def test_json_round_trip_with_names():
    L = FiniteLattice.from_covers(2, [(0, 1)], names=["bot", "top"])
    reloaded = from_json(to_json(L))
    assert reloaded.names == ("bot", "top")


def test_file_round_trip(tmp_path):
    path = tmp_path / "m3.json"
    save_lattice(m3(), path)
    reloaded = load_lattice(path)
    assert sorted(reloaded.covers) == sorted(m3().covers)


def test_json_validation_errors():
    with pytest.raises(ValueError):
        from_json_dict(["not", "an", "object"])
    with pytest.raises(ValueError):
        from_json_dict({"covers": []})
    with pytest.raises(NotALattice):
        from_json(json.dumps({"n": 6, "covers": [[0, 2], [0, 3], [1, 2], [1, 3]]}))


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 2.9, "covers": [[0.7, 1]]},  # int() would truncate to the 2-chain
        {"n": 2.0, "covers": [[0, 1]]},
        {"n": 2, "covers": [[0, 1.0]]},
        {"n": True, "covers": []},  # a bool is an int subclass
        {"n": 2, "covers": [[False, True]]},
        {"n": "2", "covers": [[0, 1]]},
        {"n": 2, "covers": [["0", 1]]},
    ],
)
def test_json_rejects_non_integer_numbers(payload):
    with pytest.raises(ValueError):
        from_json_dict(payload)


def test_json_emits_reduced_covers():
    L = FiniteLattice.from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert to_json_dict(L)["covers"] == [[0, 1], [1, 2]]


def test_dot_contains_ranks_and_edges():
    text = to_dot(m3())
    assert "rankdir=BT" in text
    assert "rank=same" in text
    for lo, hi in m3().covers:
        assert f"n{lo} -> n{hi};" in text
