"""The 17-digit outputs recorded in perfbench/ref replay exactly from the current code.

The benchmark's workload module is loaded by file path and only read: its
audit grid and CLI catalogue are the inputs, its reference files the answers.
"""

import json
from collections import defaultdict

import pytest

from entpoly import polygon
from helpers import load_perfbench

workloads = load_perfbench("workloads")

TRIALS = 3  # the recorded T = 3 sweep, one audit_random per target
LOAD_TRIALS = 200  # the benchmark's own load


def _recorded_audits(trials, master):
    return json.loads((workloads.REF_DIR / "audit_sweep.json").read_text())["results"][str(trials)][str(master)]


@pytest.mark.parametrize("master", workloads.AUDIT_SEEDS)
def test_audit_sweep_matches_recorded(master):
    refs = _recorded_audits(TRIALS, master)
    grid = workloads.audit_grid()
    assert sorted(key for key, *_ in grid) == sorted(refs)
    mismatched = [
        key
        for key, profile, part, kind, alpha in grid
        if workloads.format_audit(polygon.audit_random(profile, part, kind, alpha, TRIALS, master)) != refs[key]
    ]
    assert mismatched == []


@pytest.mark.parametrize("master", workloads.AUDIT_SEEDS)
def test_audit_load_matches_recorded(master):
    refs = _recorded_audits(LOAD_TRIALS, master)
    targets = defaultdict(lambda: (set(), set(), set()))  # profile -> its partitions, measures, alphas
    for _, profile, part, kind, alpha in workloads.audit_grid():
        for axis, value in zip(targets[profile], (part, kind, alpha)):
            axis.add(value)
    got = {}
    for profile, (parts, kinds, alphas) in targets.items():
        for summary in polygon.audit_plan(profile, parts, kinds, alphas, LOAD_TRIALS, master):
            key = workloads.audit_key(profile.dims, summary.partition, summary.measure, summary.alpha)
            got[key] = workloads.format_audit(summary)
    assert len(got) == len(refs) == 312
    assert [key for key in refs if got.get(key) != refs[key]] == []


def test_audit_random_load_matches_recorded_across_a_seed_change():
    # the benchmark's own path: one audit_random per target at T = 200, in its
    # shuffled order, for two master seeds back to back, so memoized chunks are
    # served warm and then evicted when the seed changes
    sweep = workloads.AuditSweep(1)
    assert sweep.trials == LOAD_TRIALS
    for cycle in (0, 1):
        master, audits = sweep.build(cycle)
        refs = _recorded_audits(LOAD_TRIALS, master)
        mismatched = [
            key
            for key, profile, part, kind, alpha in audits
            if workloads.format_audit(polygon.audit_random(profile, part, kind, alpha, LOAD_TRIALS, master))
            != refs[key]
        ]
        assert len(audits) == 312 and mismatched == []
    info = polygon._chunk.cache_info()
    assert (info.misses, info.hits) == (8, 2 * 312 - 8)  # one 200-trial chunk per profile and seed


def test_cli_stdout_matches_recorded():
    refs = json.loads((workloads.REF_DIR / "cli_mix.json").read_text())["stdout"]
    argvs = [argv for variants in workloads.cli_catalogue().values() for argv in variants]
    assert len(argvs) == 46
    for argv in argvs:
        code, out = workloads.replay_cli(argv)
        assert (code, out) == (0, refs[" ".join(argv)].encode()), argv
