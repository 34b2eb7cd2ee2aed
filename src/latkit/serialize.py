"""Lattice file I/O.

JSON schema: {"n": <int>, "covers": [[lo, hi], ...], "names": [...]?}
DOT output: one node per element ranked by height, edges = covers.
"""

import json

from .core import FiniteLattice


def to_json_dict(L):
    payload = {"n": L.n, "covers": [list(c) for c in sorted(L.covers)]}
    if L.names:
        payload["names"] = list(L.names)
    return payload


def to_json(L, **kwargs):
    return json.dumps(to_json_dict(L), sort_keys=True, **kwargs)


def from_json_dict(payload):
    if not isinstance(payload, dict):
        raise ValueError("lattice JSON must be an object")
    try:
        n, covers = payload["n"], [(lo, hi) for lo, hi in payload["covers"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad lattice JSON: {exc}") from exc
    if any(type(v) is not int for v in (n, *(v for pair in covers for v in pair))):
        raise ValueError("bad lattice JSON: n and cover endpoints must be integers")
    names = payload.get("names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(x, str) for x in names)
    ):
        raise ValueError("names must be a list of strings")
    return FiniteLattice.from_covers(n, covers, names=names)


def from_json(text):
    return from_json_dict(json.loads(text))


def load_lattice(path):
    with open(path, "r", encoding="utf-8") as handle:
        return from_json(handle.read())


def save_lattice(L, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json(L, indent=2))
        handle.write("\n")


def to_dot(L):
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for x in range(L.n):
        label = L.name_of(x).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{x} [label="{label}"];')
    by_height = {}
    for x in range(L.n):
        by_height.setdefault(L.heights[x], []).append(x)
    for height in sorted(by_height):
        group = " ".join(f"n{x};" for x in by_height[height])
        lines.append(f"  {{ rank=same; {group} }}")
    for lo, hi in sorted(L.covers):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
