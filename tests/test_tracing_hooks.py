"""The benchmark's layer tracing wraps entpoly bindings by (module, attribute)."""

import importlib

import entpoly as ep
from helpers import load_perfbench


def test_every_hook_resolves():
    tracing = load_perfbench("tracing")
    for module_name, attr, layer, _ in tracing.HOOKS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({layer})"


def test_tracer_sees_every_audit_draw():
    # a sampler table holding haar_random_ket itself would bypass the wrapped binding
    tracing = load_perfbench("tracing")
    prof = ep.DimensionProfile((2, 2, 2))
    with tracing.installed(tracing.Tracer()) as tracer:
        ep.audit_random(prof, None, ep.GEM, 1.0, 7, 3)
        ep.audit_trial_report(prof, None, ep.GEM, 1.0, 3, 2)
    draws = tracer.calls["tensor.haar_random_ket"]
    assert draws == tracer.calls["polygon.sample_state"]
    assert draws >= 8  # 7 trials and the replay
