"""One benchmark round in a fresh interpreter.

Started by run.py, never imported by it.  The round imports latkit from
the checkout's ``src`` directory, builds its inputs from the seed, times
the workload's fixed amount of work (optionally traced), then checks the
outputs outside the timed phase.  It prints one JSON object on its last
stdout line.
"""

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class Ops:
    """Times like operations one by one; an operation that raises is
    counted as failed and its output is None."""

    def __init__(self):
        self.seconds = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation failure is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        self.seconds.append(time.perf_counter() - start)
        return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))  # the checkout's latkit, never an installed one
    workload = importlib.import_module(args.workload)
    state = workload.setup(args.seed, args.round, BENCH / "out" / "work")

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = Ops()
    gc.collect()
    t0 = time.perf_counter()
    c0 = time.process_time()
    outputs = workload.run(state, ops)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    counters = workload.counters() if hasattr(workload, "counters") else {}

    try:
        problems = workload.check(state, outputs)
    except Exception:
        problems = ["check raised:\n" + traceback.format_exc()]

    result = {
        "timed_start": t0,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "op_seconds": ops.seconds,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "problems": problems,
        "counters": counters,
    }
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        result["skipped"] = tracer.skipped
        if args.trace_file:
            Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.trace_file, t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
