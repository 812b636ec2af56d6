"""One benchmark iteration, in the fresh interpreter that ``run.py`` starts.

Importing ``ncps`` and building the workload's inputs is the set-up; the
moment it ends is reported as ``ready`` (``time.perf_counter``, which is the
system-wide monotonic clock, so the parent can subtract its spawn time).
In ``run`` mode every op is then computed (timed), judged against its pin,
and, with ``--trace 1``, traced.  The result is one JSON line on stdout.

    python3 perfbench/worker.py --workload checks --seed 1 --size full --mode run --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import workloads
from tracer import COUNTERS, SPANS, Tracer

PINS = Path(__file__).resolve().parent / "pins.json"
MAX_SIZES = {"symbols.max_word_len", "numeric.matrix_dim"}  # merged by max, others summed


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_ops(ops: list[workloads.Op], tracer: Tracer | None) -> dict:
    pins = json.loads(PINS.read_text())
    run_s = 0.0
    failures: list[str] = []
    layers: dict[str, float] = {}
    sizes: dict[str, int] = {}
    for op in ops:
        gc.collect()  # every op starts from a collected heap, whatever ran before
        if tracer:
            tracer.reset()
        whole = tracer.span(op.span) if tracer and op.span else nullcontext()
        t0 = time.perf_counter()
        try:
            with whole:
                out = op.compute()
        except Exception as exc:  # a failed op is counted, never fatal
            run_s += time.perf_counter() - t0
            failures.append(f"{op.name}: raised {exc!r}")
            continue
        run_s += time.perf_counter() - t0
        if tracer:
            for name in SPANS:
                layers[f"{name}_s"] = layers.get(f"{name}_s", 0.0) + tracer.self_s[name]
            if op.span:
                layers[f"{op.span}_s"] = layers.get(f"{op.span}_s", 0.0) + tracer.total_s[op.span]
            for name in COUNTERS:
                layers[name] = layers.get(name, 0) + tracer.counts[name]
        try:
            summary = op.judge(out)
            if tracer:
                for key, value in op.sizes(out).items():
                    old = sizes.get(key, 0)
                    sizes[key] = max(old, value) if key in MAX_SIZES else old + value
        except Exception as exc:
            failures.append(f"{op.name}: check raised {exc!r}")
            continue
        finally:
            del out
        if op.pinned:
            if op.name not in pins:
                failures.append(f"{op.name}: no pinned output")
            elif summary != pins[op.name]:
                failures.append(f"{op.name}: output differs from the pin: {summary}")
        elif not summary.get("ok"):
            failures.append(f"{op.name}: identity violated: {summary}")
    result = {
        "run_s": run_s,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = layers
        result["sizes"] = sizes
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ops = workloads.WORKLOADS[args.workload](args.seed, args.size)
    result = {"ready": time.perf_counter(), "ops": len(ops)}
    if args.mode == "setup":
        result["environment"] = environment()
    else:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        result.update(run_ops(ops, tracer))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
