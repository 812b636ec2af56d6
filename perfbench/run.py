"""Benchmark of the exact symbol engine and the lattice harness of ``ncps``.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size smoke]

Run it from the repository root.  Workloads (see ``workloads.py``):

- ``checks``: the seven named checks at their registry defaults, in an
  order shuffled by the iteration's seed.
- ``coupled-deep``: the ``eta-coupled`` pipeline at floor -4.
- ``conformal-heat``: heat coefficients of the conformal family at t_cap 3,
  and the Mellin route against the sqrt/inversion route.
- ``lattice``: assembly, eigensolve and localized heat traces on seeded
  twisted tori.

Load model: a closed loop with one client.  Each iteration runs in a fresh
interpreter, started only after the previous one has exited, so no cache
outlives an iteration.  Iterations repeat until the next one would not fit
in ``--seconds``, but there are always at least two, so that a slow first
iteration never stands alone as the median.  Iteration ``i`` gets the
``i``-th seed drawn from ``--seed``, so a run covers several check orders and
lattice inputs, and the same ``--seed`` gives the same inputs.  Every op's
output is checked against its pin; a failed op is counted and the run goes
on.

``--trace 0`` prints the end-to-end metrics:

- ``run_s``: median compute time of one iteration.
- ``setup_s``: median time from spawning an interpreter to inputs ready,
  over iteration workers plus set-up-only starts.
- ``peak_rss_mb``: largest maximum RSS of an iteration worker.

``--trace 1`` alternates traced and untraced iterations and prints the
per-layer metrics: self time of each public layer function (``*_s``;
inclusive time for the named checks), call counts of the arithmetic
methods, output sizes, and the tracing overhead.  The last line of stdout
is always the JSON result.  The run exits non-zero, printing no result,
when the package cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = {"full": 7, "smoke": 3}
MIN_ITERATIONS = 2
WORKER_TIMEOUT = 150  # seconds; one iteration takes well under 20 s
# one BLAS thread: on a shared 2-core machine two threads made lattice run_s
# spread 0.31 over five seeds, against 0.07 with one
BLAS_THREADS = 1
FIXED_INPUTS = ("coupled-deep", "conformal-heat")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHECK_NAMES = (
    "eta_coupled", "eta_conformal", "eta_invariance", "zeta_conformal",
    "res_heat", "cs_density", "flow_index",
)
PER_LAYER = {
    **{f"checks.{name}_s": "s" for name in CHECK_NAMES},
    "symbols.dirac_symbol_s": "s",
    "symbols.sqrt_symbol_s": "s",
    "symbols.invert_symbol_s": "s",
    "symbols.star_product_s": "s",
    "heat.heat_coefficients_s": "s",
    "heat.mellin_inverse_power_s": "s",
    "functionals.wres_s": "s",
    "functionals.vanishing_level_s": "s",
    "numeric.build_operator_s": "s",
    "numeric.hermitian_eigenvalues_s": "s",
    "numeric.heat_trace_operator_s": "s",
    "scalars.mul_calls": "count",
    "scalars.add_calls": "count",
    "scalars.scale_calls": "count",
    "algebra.mul_calls": "count",
    "algebra.add_calls": "count",
    "algebra.tau_is_zero_calls": "count",
    **{f"symbols.sign_word_terms.deg{d}": "count" for d in range(0, -5, -1)},
    "symbols.inverse_abs_word_terms": "count",
    "symbols.max_word_len": "count",
    "heat.beta_word_terms": "count",
    "numeric.matrix_dim": "count",
    "numeric.bytes_computed": "bytes",
    "symbols.output_terms_per_scalar_op": "ratio",
    "trace_overhead_s": "s",
    "fail_ratio": "ratio",
}
# rows of the per-layer baseline table in ROADMAP.md
BASELINE_ROWS = (
    ("sqrt_symbol", "symbols.sqrt_symbol_s"),
    ("invert_symbol", "symbols.invert_symbol_s"),
    ("star product", "symbols.star_product_s"),
    ("heat_coefficients", "heat.heat_coefficients_s"),
    ("mellin_inverse_power", "heat.mellin_inverse_power_s"),
    ("build_operator", "numeric.build_operator_s"),
    ("eigensolve", "numeric.hermitian_eigenvalues_s"),
)


class WorkerError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def worker_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # fixed hashing keeps the traced counters repeatable
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Bench:
    def __init__(self, args: argparse.Namespace, root: Path, env: dict):
        self.args = args
        self.root = root
        self.env = env

    def spawn(self, mode: str, seed: int, traced: bool = False) -> tuple[dict, float]:
        """Start one worker and wait for it; returns its result and spawn time."""
        cmd = [
            sys.executable, str(WORKER),
            "--workload", self.args.workload, "--seed", str(seed),
            "--size", self.args.size, "--mode", mode, "--trace", "1" if traced else "0",
        ]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"worker timed out after {WORKER_TIMEOUT} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1]), spawned


def iteration_seed(seed: int, i: int) -> int:
    return random.Random(f"{seed}/{i}").getrandbits(32)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: int, trace: bool) -> dict:
    """Warm up, then run iterations and set-up probes within ``seconds``."""
    first_seed = iteration_seed(bench.args.seed, 0)
    warm, spawned = bench.spawn("setup", first_seed)  # compiles bytecode, warms the file cache
    n_ops = warm["ops"]
    probe_s = time.perf_counter() - spawned
    deadline = time.perf_counter() + seconds
    probes = 0 if trace else SETUP_SAMPLES[bench.args.size]
    runs: list[tuple[bool, dict]] = []
    setups: list[float] = []
    attempted = failed = 0
    longest = 0.0
    iterations = 0
    while True:
        traced = trace and iterations % 2 == 0
        t0 = time.perf_counter()
        attempted += n_ops
        try:
            res, spawned = bench.spawn("run", iteration_seed(bench.args.seed, iterations), traced)
        except WorkerError as exc:  # counts as every op failing, never aborts
            print(f"iteration {iterations}: {exc}", file=sys.stderr)
            failed += n_ops
        else:
            failed += res["failed"]
            setups.append(res["ready"] - spawned)
            runs.append((traced, res))
            for msg in res["failures"]:
                print(f"iteration {iterations}: FAILED {msg}", file=sys.stderr)
        iterations += 1
        longest = max(longest, time.perf_counter() - t0)
        enough = iterations >= MIN_ITERATIONS
        reserve = max(0, probes - len(setups)) * probe_s
        if enough and time.perf_counter() + longest + reserve > deadline:
            break
    while len(setups) < probes:
        res, spawned = bench.spawn("setup", first_seed)
        setups.append(res["ready"] - spawned)
    return {
        "environment": warm["environment"],
        "runs": runs,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "seeds": [iteration_seed(bench.args.seed, i) for i in range(iterations)],
    }


def end_to_end(m: dict) -> dict:
    plain = [res for traced, res in m["runs"] if not traced]
    run_samples = [res["run_s"] for res in plain]
    print(f"run_s samples ({len(run_samples)}): " + " ".join(f"{v:.4f}" for v in run_samples))
    print(f"setup_s samples ({len(m['setups'])}): " + " ".join(f"{v:.4f}" for v in m["setups"]))
    return {
        "run_s": median(run_samples),
        "setup_s": median(m["setups"]),
        "peak_rss_mb": max((res["rss_mb"] for res in plain), default=0.0),
    }


def per_layer(m: dict) -> dict:
    traced = [res for is_traced, res in m["runs"] if is_traced]
    plain = [res["run_s"] for is_traced, res in m["runs"] if not is_traced]
    out = {}
    for name, unit in PER_LAYER.items():
        idle = 0.0 if unit == "s" else 0
        samples = [{**res["layers"], **res["sizes"]}.get(name, idle) for res in traced]
        # counts and sizes stay whole numbers: they repeat across iterations
        out[name] = median(samples) if unit == "s" else statistics.median_low(samples or [0])
    scalar_ops = out["scalars.mul_calls"] + out["scalars.add_calls"] + out["scalars.scale_calls"]
    output_terms = median([res["sizes"].get("output_terms", 0) for res in traced])
    out["symbols.output_terms_per_scalar_op"] = output_terms / scalar_ops if scalar_ops else 0.0
    out["trace_overhead_s"] = median([res["run_s"] for res in traced]) - median(plain)
    out["fail_ratio"] = m["failed"] / m["attempted"]
    print(f"traced layers, median of {len(traced)} traced iterations (ROADMAP baseline rows):")
    for label, name in BASELINE_ROWS:
        print(f"  {label:<22} {out[name]:10.4f} s")
    print(f"  tracing overhead       {out['trace_overhead_s']:10.4f} s per iteration")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("checks", "coupled-deep", "conformal-heat", "lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_SAMPLES), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ncps" / "__init__.py").is_file():
        print("src/ncps not found: run from the repository root", file=sys.stderr)
        return 2
    bench = Bench(args, root, worker_env(root, BLAS_THREADS))
    try:
        m = measure(bench, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark could not start: {exc}", file=sys.stderr)
        return 2
    info = {
        **m["environment"],
        "cpu": cpu_model(),
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "iteration_seeds": m["seeds"],
        "inputs": "paper's fixed family, seed unused" if args.workload in FIXED_INPUTS
        else "drawn from the iteration seeds",
        "load": "closed loop, one client, fresh interpreter per iteration",
    }
    print("environment: " + json.dumps(info))
    if args.trace:
        values, units = per_layer(m), PER_LAYER
    else:
        values, units = end_to_end(m), END_TO_END
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
