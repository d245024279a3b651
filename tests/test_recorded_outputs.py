"""The 17-digit outputs recorded in perfbench/ref replay exactly from the current code.

The benchmark's workload module is loaded by file path and only read: its
audit grid and CLI catalogue are the inputs, its reference files the answers.
"""

import json

import pytest

from entpoly import polygon
from helpers import load_perfbench

workloads = load_perfbench("workloads")

TRIALS = 3  # the recorded T = 3 sweep; the T = 200 one is the benchmark's own load


@pytest.mark.parametrize("master", workloads.AUDIT_SEEDS)
def test_audit_sweep_matches_recorded(master):
    refs = json.loads((workloads.REF_DIR / "audit_sweep.json").read_text())["results"][str(TRIALS)][str(master)]
    grid = workloads.audit_grid()
    assert sorted(key for key, *_ in grid) == sorted(refs)
    mismatched = [
        key
        for key, profile, part, kind, alpha in grid
        if workloads.format_audit(polygon.audit_random(profile, part, kind, alpha, TRIALS, master)) != refs[key]
    ]
    assert mismatched == []


def test_cli_stdout_matches_recorded():
    refs = json.loads((workloads.REF_DIR / "cli_mix.json").read_text())["stdout"]
    argvs = [argv for variants in workloads.cli_catalogue().values() for argv in variants]
    assert len(argvs) == 46
    for argv in argvs:
        code, out = workloads.replay_cli(argv)
        assert (code, out) == (0, refs[" ".join(argv)].encode()), argv
