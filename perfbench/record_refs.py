#!/usr/bin/env python3
"""Record the reference outputs the benchmark's correctness gate compares against.

    python3 perfbench/record_refs.py

Writes perfbench/ref/audit_sweep.json (every audit of the sweep, for each
master seed in AUDIT_SEEDS, at the full and the self-test trial counts) and
perfbench/ref/cli_mix.json (stdout of every CLI argv the workload can run).
Run it only at a commit whose outputs are the accepted ones: the benchmark
treats any later difference as a failed op.
"""

from __future__ import annotations

import json
import re
import sys

import run

workloads = run.import_workloads()


def record_audits() -> dict:
    from entpoly import polygon

    grid = workloads.audit_grid()
    results = {}
    for trials in (3, 200):
        results[str(trials)] = {
            str(master): {
                key: workloads.format_audit(
                    polygon.audit_random(profile, part, kind, alpha, trials, master))
                for key, profile, part, kind, alpha in grid
            }
            for master in workloads.AUDIT_SEEDS
        }
    return {"format": "[violations, worst_residual at 17 significant digits, worst_trial]",
            "results": results}


def record_cli() -> dict:
    stdout = {}
    for variants in workloads.cli_catalogue().values():
        for argv in variants:
            code, out, _ = workloads.run_cli(argv)
            if code != workloads.CliMix.EXPECTED_EXIT:
                sys.exit(f"error: {' '.join(argv)} exited {code}")
            stdout[" ".join(argv)] = out.decode()
    return {"stdout": stdout}


def main() -> int:
    workloads.REF_DIR.mkdir(exist_ok=True)
    for name, payload in (("audit_sweep", record_audits()), ("cli_mix", record_cli())):
        text = json.dumps(payload, indent=1, sort_keys=True)
        # one audit result per line: [violations, "worst_residual", worst_trial]
        text = re.sub(r"\[\n\s+(\d+),\n\s+(\"[^\"]*\"),\n\s+(\d+)\n\s+\]", r"[\1, \2, \3]", text)
        (workloads.REF_DIR / f"{name}.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
