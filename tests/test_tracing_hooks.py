"""The benchmark's layer tracing wraps entpoly bindings by (module, attribute)."""

import importlib

from helpers import load_perfbench


def test_every_hook_resolves():
    tracing = load_perfbench("tracing")
    for module_name, attr, layer, _ in tracing.HOOKS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({layer})"
