"""The benchmark's trace-norm workloads run and pass their own reference checks.

`gw_tracenorm` checks the trace-norm negativity of GW kets against the closed
form, and `dense_tracenorm` checks it on Haar kets against the Schmidt path
`measures.negativity_pure_schmidt`.  The workload module is loaded by file path
and only read; one tiny cycle of each runs here.
"""

import pytest

from entpoly import gallery, measures
from helpers import load_perfbench

workloads = load_perfbench("workloads")

# (workload, the module and name of the reference it checks against)
CASES = [
    (workloads.GwTracenorm, gallery, "gw_negativity_closed"),
    (workloads.DenseTracenorm, measures, "negativity_pure_schmidt"),
]
IDS = ["gw_tracenorm", "dense_tracenorm"]


def one_tiny_cycle(workload):
    wl = workload(seed=3, tiny=True)
    rec = workloads.Recorder()
    wl.run(wl.build(0), rec)
    return rec


@pytest.mark.parametrize("workload, module, reference", CASES, ids=IDS)
def test_tiny_cycle_passes_its_checks(workload, module, reference, monkeypatch):
    rec = one_tiny_cycle(workload)
    assert rec.ops > 0
    assert rec.failed == 0
    # the checks are live: a reference shifted by 1e-6 fails ops
    original = getattr(module, reference)
    monkeypatch.setattr(module, reference, lambda *a, **k: original(*a, **k) + 1e-6)
    assert one_tiny_cycle(workload).failed > 0
