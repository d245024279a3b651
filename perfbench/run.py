#!/usr/bin/env python3
"""entpoly benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): audit_sweep, gw_tracenorm, dense_tracenorm,
cli_mix.  The program is imported from ``src/`` of the checkout this file
sits in; nothing is installed.

``--trace 0`` measures whole cycles of the workload until at least S seconds
have passed and at least MIN_CALLS calls were made, checks every output, and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of cycles
untraced and the same number of fresh cycles traced, and reports per-layer
counts and self times (spans go to ``perfbench/out/``).  The last line of
stdout is the JSON result; the line before it is the run report (provenance,
sizes, input properties), also written to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is first imported, here and in every
# child process (children inherit the environment).
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_CALLS = 100  # so call_p90_ms has at least ten samples beyond it
SETUP_PROBES = 5
TRACED_CYCLES = {"audit_sweep": 1, "gw_tracenorm": 3, "dense_tracenorm": 2, "cli_mix": 2}
CLI_PROBES = 7


def import_workloads():
    """Import the benchmark's workloads against this checkout's ``src/``, or exit."""
    if not (SRC / "entpoly" / "__init__.py").is_file():
        sys.exit(f"error: no entpoly sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import entpoly

    if Path(entpoly.__file__).resolve().parent != SRC / "entpoly":
        sys.exit(f"error: imported entpoly from {entpoly.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup(name: str, seed: int, tiny: bool = False):
    """Import the program, build cycle 0's inputs and make one warm-up call.

    The inputs are dropped on return; the measured loop builds its own, so no
    input outlives its cycle and peak_rss_mb does not depend on when it dies.
    """
    workloads = import_workloads()
    wl = workloads.WORKLOADS[name](seed, tiny)
    wl.warmup(wl.build(0))
    return workloads, wl


def wall_times(argv: list[str], count: int, env=None) -> list[float]:
    """Wall seconds of `count` sequential runs of a child process."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def measure(workloads, wl, seconds: float, min_calls: int):
    """Whole cycles until `seconds` passed and `min_calls` were made; per-cycle op rates."""
    rec, rates = workloads.Recorder(), []
    t_start = perf_counter()
    while True:
        inputs = wl.build(len(rates))
        ops, timed_s = rec.ops, rec.timed_s
        wl.run(inputs, rec)
        rates.append((rec.ops - ops) / (rec.timed_s - timed_s))
        del inputs  # freed before the next cycle's inputs are built
        if perf_counter() - t_start >= seconds and len(rec.latencies) >= min_calls:
            return rec, rates


def end_to_end(workloads, wl, name, seed, seconds, min_calls, probes=True):
    rec, rates = measure(workloads, wl, seconds, min_calls)
    if name == "cli_mix":
        rss_kib = wl.peak_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat_ms = [x * 1e3 for x in rec.latencies]
    # fresh processes that only set up: what every run of the workload pays
    setup_argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                  "--seed", str(seed), "--setup-only"]
    setup_times = wall_times(setup_argv, SETUP_PROBES) if probes else [float("nan")]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "call_p50_ms": (statistics.median(lat_ms), "ms"),
        "call_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    detail = {
        "cycles": len(rates), "calls": len(lat_ms), "timed_s": rec.timed_s,
        "failed_frac": rec.failed / rec.ops, "setup_probes_s": setup_times,
    }
    return rec.ops, rec.failed, metrics, detail


def traced(workloads, wl, name):
    import tracing

    cycles = TRACED_CYCLES[name]
    if name == "cli_mix":  # replay the argv in-process, so spans can be taken
        wl.in_process = True
        wl.warmup(wl.build(0))

    def run_pass(start, tracer=None):
        rec, wall = workloads.Recorder(), 0.0
        for c in range(start, start + cycles):
            inputs = wl.build(c)
            t0 = perf_counter()
            wl.run(inputs, rec, tracer)
            wall += perf_counter() - t0
            del inputs
        return rec, wall

    plain, wall_plain = run_pass(0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        spanned, wall_traced = run_pass(cycles, tracer)
    OUT.mkdir(exist_ok=True)
    spans = tracer.write(OUT / f"{name}.spans.tsv.gz")

    startup_ms = import_ms = 0.0
    if name == "cli_mix":
        env = workloads.cli_env()
        startup_ms = 1e3 * statistics.median(wall_times([sys.executable, "-c", "pass"], CLI_PROBES, env))
        import_ms = 1e3 * statistics.median(
            wall_times([sys.executable, "-c", "import entpoly.cli"], CLI_PROBES, env)) - startup_ms
    values = tracing.layer_metrics(tracer)
    values.update({
        "cli.python_startup_ms": startup_ms,
        "cli.import_ms": import_ms,
        "trace.untraced_wall_s": wall_plain,
        "trace.traced_wall_s": wall_traced,
        "trace.overhead_frac": wall_traced / wall_plain - 1.0,
    })
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {k: (v, units[k]) for k, v in values.items()}
    detail = {
        "cycles_per_pass": cycles, "spans": spans,
        "input_properties": tracing.input_properties(tracer),
    }
    return plain.ops + spanned.ops, plain.failed + spanned.failed, metrics, detail


def provenance(name: str, seed: int, seconds: float, trace_flag: int, wl) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git = res.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "entpoly").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace_flag,
        "size": wl.size, "min_calls": MIN_CALLS, "load": "closed loop, one caller, no worker threads",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        "git_sha": git, "src_sha256": src_hash.hexdigest(),
    }


def run(name: str, seed: int, seconds: float, trace_flag: int, *, tiny=False,
        min_calls=MIN_CALLS, probes=True, prepare=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, report).  `prepare` may alter the workload."""
    workloads, wl = setup(name, seed, tiny)
    if prepare is not None:
        prepare(wl)
    if trace_flag:
        attempted, failed, metrics, detail = traced(workloads, wl, name)
    else:
        attempted, failed, metrics, detail = end_to_end(
            workloads, wl, name, seed, seconds, min_calls, probes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"provenance": provenance(name, seed, seconds, trace_flag, wl), "detail": detail}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["audit_sweep", "gw_tracenorm", "dense_tracenorm", "cli_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    text = json.dumps(report, sort_keys=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, **report}, indent=1, sort_keys=True) + "\n")
    print(text)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
