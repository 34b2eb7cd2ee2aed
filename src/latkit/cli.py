"""Command-line surface.

Exit codes: 0 = verdict computed (negative mathematical verdicts
included), 1 = a verification run disagreed or a scan found a
counterexample, 2 = invalid input, 3 = internal error (a bug: one
stderr line, no traceback).  Identical invocations produce
byte-identical --json output.
"""

import argparse
import functools
import json
import os
import sys

from . import serialize
from .classifier import check_theorem
from .enumeration import (
    DEFAULT_ENUM_CAP,
    conjecture1_scan,
    iter_lattices,
    verify_corpus,
)
from .errors import InvariantViolated, LatkitError, TheoremDisagreement
from .freeterm import canonical, format_term, free_leq, parse as parse_term
from .jonsson import d_sequence
from .ladder import decorate, ladder_split, window
from .properties import CHECKERS, check_property
from .subalgebra import gadget, gadget_census

PROPERTIES = tuple(CHECKERS)


def _dump(payload):
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _load(path, parse=serialize.from_json):
    """parse(text of the file at path); json raises RecursionError on deep nesting."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read())
    except FileNotFoundError:
        raise LatkitError(f"no such file: {path}")
    except (ValueError, RecursionError) as exc:
        raise LatkitError(f"cannot read {path}: {exc}")


def _cmd_check(args):
    L = _load(args.file)
    report = check_property(L, args.property)
    _dump(report.to_json_dict())
    return 0


def _cmd_dseq(args):
    L = _load(args.file)
    _dump(d_sequence(L).to_json_dict())
    return 0


def _cmd_classify(args):
    L = _load(args.file)
    try:
        verdict = check_theorem(L)
    except TheoremDisagreement as exc:
        print(f"theorem disagreement: {exc}", file=sys.stderr)
        return 1
    _dump(verdict.to_json_dict())
    return 0


def _cmd_gadget(args):
    report = gadget(_load(args.file), args.a, args.b, args.c)
    _dump(report.to_json_dict())
    return 0


def _cmd_gadget_census(args):
    census = gadget_census(iter_lattices(args.max_n))
    _dump(census.to_json_dict())
    return 0 if census.passes else 1


def _cmd_free(args):
    expected = 2 if args.action == "leq" else 1
    if len(args.terms) != expected:
        raise LatkitError(
            f"free {args.action} takes {expected} term(s), got {len(args.terms)}"
        )
    if args.action == "leq":
        s, t = parse_term(args.terms[0]), parse_term(args.terms[1])
        verdict = free_leq(s, t)
        if args.json:
            _dump({"s": format_term(s), "t": format_term(t), "leq": verdict})
        else:
            print("true" if verdict else "false")
        return 0
    term = parse_term(args.terms[0])
    result = canonical(term)
    if args.json:
        _dump({"input": format_term(term), "canonical": format_term(result)})
    else:
        print(format_term(result))
    return 0


def _cmd_ladder(args):
    W = window(args.radius)
    if args.file and args.file != "none":
        W = decorate(W, _load(args.file, json.loads))
    report = ladder_split(W, a=args.a, b=args.b)
    _dump(report.to_json_dict())
    return 0


def _cmd_enum(args):
    wanted = [p for p in (args.property or "").split(",") if p]
    unknown = [p for p in wanted if p not in PROPERTIES]
    if unknown:
        raise LatkitError(
            f"unknown property {unknown[0]!r}; choose from {', '.join(PROPERTIES)}"
        )
    stream = iter_lattices(args.max_n, cap=args.cap)  # checks max_n before emit makes a directory
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
    emitted = 0
    for L in stream:
        if args.width is not None and L.width() != args.width:
            continue
        if not all(check_property(L, name).verdict for name in wanted):
            continue
        _dump(serialize.to_json_dict(L))
        if args.emit:
            path = os.path.join(args.emit, f"lat_{L.n}_{emitted:05d}.json")
            serialize.save_lattice(L, path)
        emitted += 1
    print(f"emitted {emitted} lattices", file=sys.stderr)
    return 0


def _cmd_scan(args):
    report = conjecture1_scan(args.max_n)
    payload = report.to_json_dict()
    if not args.full:
        payload.pop("entries")
    _dump(payload)
    problems = report.sd_failures or report.decomposition_failures
    return 1 if problems else 0


def _cmd_verify(args):
    if args.what == "gj":
        checked = disagreements = 0
        for L in iter_lattices(args.max_n):
            try:
                check_theorem(L)
            except TheoremDisagreement as exc:
                print(f"disagreement on lattice {checked}: {exc}", file=sys.stderr)
                disagreements += 1
            checked += 1
        _dump({"checked": checked, "max_n": args.max_n, "pass": disagreements == 0})
        return 1 if disagreements else 0
    report = verify_corpus(max_n=args.max_n)
    _dump(report)
    return 0 if report["pass"] else 1


def _cmd_render(args):
    L = _load(args.file)
    text = serialize.to_dot(L)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


@functools.cache
def build_parser():
    """Built once; run looks each verb's handler up by name at every call."""
    top = argparse.ArgumentParser(
        prog="latkit", description="finite lattice toolkit"
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def verb(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=func.__name__)
        return p

    p = verb("check", _cmd_check, "evaluate a property of a lattice file")
    p.add_argument("file")
    p.add_argument("--property", required=True, choices=PROPERTIES)

    p = verb("dseq", _cmd_dseq, "Jonsson D-sequence and quadrant")
    p.add_argument("file")

    p = verb("classify", _cmd_classify, "structure-theorem verdict")
    p.add_argument("file")

    p = verb("gadget", _cmd_gadget, "gadget report for a triple")
    p.add_argument("file")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)

    p = verb("gadget-census", _cmd_gadget_census, "census over all small lattices")
    p.add_argument("--max-n", type=int, default=8)

    p = verb("free", _cmd_free, "free-lattice word problem")
    p.add_argument("action", choices=("leq", "canon"))
    p.add_argument("terms", nargs="+")
    p.add_argument("--json", action="store_true", help="json output")

    p = verb("ladder", _cmd_ladder, "ladder splitting on a window")
    p.add_argument("action", choices=("split",))
    p.add_argument("file", help="decoration spec json, or 'none'")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--a", type=int, default=None, help="cover bottom (default: (0,0))")
    p.add_argument("--b", type=int, default=None, help="cover top (default: (1,0))")

    p = verb("enum", _cmd_enum, "stream all lattices up to a size")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--property", default="", help="comma-separated filters")
    p.add_argument("--emit", default=None, help="directory for lattice files")

    p = verb("scan", _cmd_scan, "conjecture evidence scans")
    p.add_argument("what", choices=("conjecture1",))
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--full", action="store_true", help="include per-lattice entries")

    p = verb("verify", _cmd_verify, "exhaustive verification runs")
    p.add_argument("what", choices=("gj", "corpus"))
    p.add_argument("--max-n", type=int, default=8)

    p = verb("render", _cmd_render, "emit DOT")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    return top


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return globals()[args.handler](args)
    except InvariantViolated as exc:  # a bug sentinel, never bad input
        bug = exc
    except (LatkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        bug = exc
    message = " ".join(str(bug).split())  # one line, whatever bug holds
    print(f"internal error: {type(bug).__name__}: {message}", file=sys.stderr)
    return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
