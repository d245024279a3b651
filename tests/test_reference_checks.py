"""The benchmark's trace-norm workloads run and pass their own reference checks.

`gw_tracenorm` checks the trace-norm negativity of GW kets against the closed
form, and `dense_tracenorm` checks it on Haar kets against the Schmidt path
`measures.negativity_pure_schmidt`.  The workload module is loaded by file path
and only read.  One full-size `gw_tracenorm` cycle runs here (its tiny form
leaves out the n = 5, D = 1024 kets) and one tiny `dense_tracenorm` cycle.
"""

import pytest

from entpoly import gallery, measures
from helpers import load_perfbench

workloads = load_perfbench("workloads")

# (workload, whether its cycle is the tiny one, the module and name of the reference it checks against)
CASES = [
    (workloads.GwTracenorm, False, gallery, "gw_negativity_closed"),
    (workloads.DenseTracenorm, True, measures, "negativity_pure_schmidt"),
]
IDS = ["gw_tracenorm", "dense_tracenorm"]


def one_cycle(workload, tiny):
    wl = workload(seed=3, tiny=tiny)
    rec = workloads.Recorder()
    wl.run(wl.build(0), rec)
    return rec


@pytest.mark.parametrize("workload, tiny, module, reference", CASES, ids=IDS)
def test_one_cycle_passes_its_checks(workload, tiny, module, reference, monkeypatch):
    rec = one_cycle(workload, tiny)
    assert rec.ops > 0
    assert rec.failed == 0
    # the checks are live: a reference shifted by 1e-6 fails ops
    original = getattr(module, reference)
    monkeypatch.setattr(module, reference, lambda *a, **k: original(*a, **k) + 1e-6)
    assert one_cycle(workload, tiny).failed > 0
