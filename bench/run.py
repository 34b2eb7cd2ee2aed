"""latkit benchmark: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each round is a fresh interpreter
(bench/worker.py), so latkit's module-level caches start empty as they do
for a CLI user.  Rounds repeat until ``--seconds`` have passed, and at
least MIN_ROUNDS rounds run.  Every round does its workload's whole fixed
amount of work; end-to-end figures are medians over rounds, operation
percentiles are taken over the pooled like operations of all rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, taken from
the traced rounds, plus the tracing overhead.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 means every round ran and every correctness check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exhaustive", "large", "terms")
MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

# per-layer metrics (--trace 1): name -> unit
PER_LAYER = {
    "enumeration.generate_s": "s",
    "enumeration.level10_s": "s",
    "enumeration.lattices": "count",
    "enumeration.pocket_s": "s",
    "core.build_s": "s",
    "core.build_calls": "count",
    "core.closure_s": "s",
    "core.width_s": "s",
    "core.canonical_key_s": "s",
    "core.canonical_key_calls": "count",
    "core.find_isomorphism_s": "s",
    "core.find_isomorphism_calls": "count",
    "properties.modular_s": "s",
    "properties.distributive_s": "s",
    "properties.sd_s": "s",
    "properties.whitman_s": "s",
    "properties.forbidden_s": "s",
    "properties.crosscheck_s": "s",
    "classifier.check_theorem_s": "s",
    "classifier.iso_2xc_s": "s",
    "jonsson.d_sequence_s": "s",
    "subalgebra.census_s": "s",
    "subalgebra.gadgets": "count",
    "subalgebra.generate_s": "s",
    "ladder.window_s": "s",
    "ladder.decorate_s": "s",
    "ladder.split_s": "s",
    "serialize.load_s": "s",
    "cli.verify_corpus_s": "s",
    "freeterm.parse_s": "s",
    "freeterm.leq_s": "s",
    "freeterm.canonical_s": "s",
    "freeterm.cache_hits": "count",
    "freeterm.cache_misses": "count",
    "freeterm.cache_hit_ratio": "ratio",
    "freeterm.cache_entries": "count",
    "trace.overhead_s": "s",
}


def child_env(seed):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = str(seed % (2**32))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no .pyc writes into the checkout
    env.pop("PYTHONPATH", None)
    return env


def run_round(workload, seed, index, traced):
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--round", str(index),
        "--trace", "1" if traced else "0",
    ]
    if traced:
        cmd += ["--trace-file", str(BENCH / "out" / f"trace-{workload}-seed{seed}-round{index}.jsonl")]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"round {index} of {workload} ran over {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round {index} of {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["timed_start"] - spawned
    return result


def quantile(values, q):
    """Inclusive-method percentile, q in (0, 100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latkit" / "__init__.py").is_file():
        print(f"no latkit sources under {ROOT / 'src'}: run from the root of a latkit checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append((traced, run_round(args.workload, args.seed, len(rounds), traced)))

    plain = [r for traced, r in rounds if not traced]
    traced_rounds = [r for traced, r in rounds if traced]
    attempted = sum(r["attempted"] for _, r in rounds)
    failed = sum(r["failed"] for _, r in rounds)
    problems = [p for _, r in rounds for p in r["problems"]]
    errors = [e for _, r in rounds for e in r["errors"]]
    op_ms = [s * 1000.0 for r in plain for s in r["op_seconds"]]

    for i, (traced, r) in enumerate(rounds):
        print(
            f"round {i}{' traced' if traced else ''}: setup {r['setup_s']:.3f} s, wall {r['wall_s']:.3f} s, "
            f"cpu {r['cpu_s']:.3f} s, rss {r['peak_rss_mb']:.1f} MB, ops {r['attempted']} ({r['failed']} failed)",
            file=sys.stderr,
        )
    print(f"operation samples: {len(op_ms)} over {len(plain)} untraced rounds", file=sys.stderr)
    for line in problems + errors:
        print(f"problem: {line}", file=sys.stderr)

    if args.trace:
        for r in traced_rounds:
            r["layers"]["trace.overhead_s"] = r["wall_s"] - statistics.median(p["wall_s"] for p in plain)
        metrics = {
            name: {"value": statistics.median({**r["layers"], **r["counters"]}.get(name, 0) for r in traced_rounds), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        skipped = sorted({name for r in traced_rounds for name in r["skipped"]})
        if skipped:
            print(f"trace targets not found, skipped: {', '.join(skipped)}", file=sys.stderr)
    else:
        figures = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "op_p50_ms": statistics.median(op_ms) if op_ms else 0.0,
            "op_p99_ms": quantile(op_ms, 99) if len(op_ms) > 1 else 0.0,
        }
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END.items()}

    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out = BENCH / "out"
    out.mkdir(parents=True, exist_ok=True)
    detail = {
        **result,
        "rounds": [
            {"traced": traced, **{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "attempted", "failed")}}
            for traced, r in rounds
        ],
        "problems": problems + errors,
    }
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
