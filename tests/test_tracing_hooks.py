"""The benchmark's layer tracing wraps entpoly bindings by (module, attribute)."""

import importlib

import entpoly as ep
from helpers import load_perfbench


def test_every_hook_resolves():
    tracing = load_perfbench("tracing")
    for module_name, attr, layer, _ in tracing.HOOKS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({layer})"


def test_traced_audit_matches_untraced_and_replay_counts_once():
    # an audit draws whole chunks of rows, with no per-trial call to hook; a replay is one sample_state call
    tracing = load_perfbench("tracing")
    prof = ep.DimensionProfile((2, 2, 2))
    untraced = ep.audit_random(prof, None, ep.GEM, 1.0, 7, 3)
    with tracing.installed(tracing.Tracer()) as tracer:
        traced = ep.audit_random(prof, None, ep.GEM, 1.0, 7, 3)
        replay = ep.audit_trial_report(prof, None, ep.GEM, 1.0, 3, untraced.worst_trial)
    assert traced == untraced
    assert tracer.calls["polygon.sample_state"] == 1
    assert replay.min_residual == untraced.worst_residual
