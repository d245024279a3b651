#!/usr/bin/env python3
"""Self-tests of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a corrupted reference turns into failed ops, that the counts of two traced
runs repeat exactly, and that the command fails without a result when the
program's sources are missing.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (
    ".calls", ".matrix_elems", ".calls_per_distinct_cut", ".calls_per_distinct_trial",
    ".input_dim_max", ".input_support_frac",
)


def tiny(name: str, trace: int, *, seed: int = 3, prepare=None, probes: bool = False) -> dict:
    result, _ = run.run(name, seed, 0.0, trace, tiny=True, min_calls=1, probes=probes, prepare=prepare)
    return result


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        sys.exit(1)


def check_metrics_emitted() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in WORKLOADS:
            result = tiny(name, trace, probes=trace == 0)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} trace={trace}: result keys")
            check(got == want, f"{name} trace={trace}: every {key} metric with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} trace={trace}: outputs pass the gate")


def _corrupt_audit(wl) -> None:
    key = wl.grid[0][0]
    for table in wl.refs.values():
        violations, residual, trial = table[key]
        table[key] = [violations, residual, trial + 1]


def _corrupt_cli(wl) -> None:
    wl.refs = {argv: out + " " for argv, out in wl.refs.items()}


def _patched(module, attr, offset):
    original = getattr(module, attr)
    setattr(module, attr, lambda *a, **k: original(*a, **k) + offset)
    return lambda: setattr(module, attr, original)


def check_corrupt_reference_fails() -> None:
    from entpoly import gallery, measures

    for name, prepare in (("audit_sweep", _corrupt_audit), ("cli_mix", _corrupt_cli)):
        result = tiny(name, 0, prepare=prepare)
        check(result["failed"] > 0 and not result["correct"], f"{name}: corrupted reference -> failed ops")
    for name, module, attr in (("gw_tracenorm", gallery, "gw_negativity_closed"),
                               ("dense_tracenorm", measures, "negativity_pure_schmidt")):
        restore = _patched(module, attr, 1e-6)
        try:
            result = tiny(name, 0)
        finally:
            restore()
        check(result["failed"] > 0 and not result["correct"], f"{name}: corrupted reference -> failed ops")


def check_trace_counts_repeat() -> None:
    for name in WORKLOADS:
        first, second = (
            {k: v["value"] for k, v in tiny(name, 1, seed=seed)["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
            for seed in (3, 4)
        )
        check(first == second, f"{name}: traced counts repeat exactly across two runs")


def check_fails_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "no sources: non-zero exit and no result")


def main() -> int:
    check_metrics_emitted()
    check_corrupt_reference_fails()
    check_trace_counts_repeat()
    check_fails_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
