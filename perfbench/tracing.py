"""Outside-in layer tracing for the benchmark.

Spans are recorded by wrapping entpoly's public functions under the names
the *calling* module binds (``entpoly.measures.reduced_spectrum`` is the name
``measures.gem_pure`` looks up at call time, ``entpoly.polygon.sample_state``
the one ``audit_random`` looks up).  Nothing under ``src/`` changes: the
wrappers are installed by :func:`installed` for a traced pass and removed
afterwards.  Spans stay in memory and are written out once, by
:meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import importlib
import math
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _state_key(state) -> bytes:
    data = state.amplitudes if hasattr(state, "amplitudes") else state.matrix
    return hashlib.blake2b(np.ascontiguousarray(data).tobytes(), digest_size=16).digest()


def _canonical_cut(n: int, block) -> tuple[int, ...]:
    """A cut and its complement are the same cut; name it by the lexicographically smaller side."""
    idx = tuple(sorted(int(i) for i in block))
    rest = tuple(i for i in range(1, n + 1) if i not in idx)
    return min(idx, rest)


class Tracer:
    """Span recorder with per-layer counts, self time and input observations."""

    def __init__(self):
        self.enabled = True
        self.op = -1
        self.names: list[str] = []
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self.cols = {
            "id": array("q"), "name": array("H"), "start": array("d"),
            "end": array("d"), "parent": array("q"), "op": array("q"),
        }
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.matrix_elems: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.neg_dims: Counter = Counter()
        self.neg_support: list[float] = []

    @contextlib.contextmanager
    def paused(self):
        """Run reference checks without recording them as program work."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, fn, layer: str, observe=None):
        if layer not in self.names:
            self.names.append(layer)
        name_id = self.names.index(layer)
        stack, cols = self._stack, self.cols

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if observe is not None:
                t_obs = perf_counter()
                observe(self, *args, **kwargs)
                if stack:  # observation is tracing cost, not the caller's work
                    stack[-1][1] += perf_counter() - t_obs
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[layer] += 1
                self.self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                cols["id"].append(span_id)
                cols["name"].append(name_id)
                cols["start"].append(t0)
                cols["end"].append(t1)
                cols["parent"].append(parent)
                cols["op"].append(self.op)

        return traced

    def write(self, path) -> int:
        """Write every span as gzipped TSV; returns the span count."""
        cols = self.cols
        with gzip.open(path, "wt", compresslevel=1) as fp:
            fp.write("id\tname\tstart\tend\tparent\top\n")
            for i in range(len(cols["id"])):
                fp.write(
                    f"{cols['id'][i]}\t{self.names[cols['name'][i]]}\t{cols['start'][i]:.9f}\t"
                    f"{cols['end'][i]:.9f}\t{cols['parent'][i]}\t{cols['op'][i]}\n"
                )
        return len(cols["id"])


def _observe_spectrum(tr: Tracer, psi, block):
    tr.matrix_elems["tensor.reduced_spectrum"] += psi.profile.total_dim  # d_block * d_rest
    key = _state_key(psi)
    tr.distinct["states"].add(key)
    tr.distinct["tensor.reduced_spectrum"].add((key, _canonical_cut(psi.profile.n, block)))


def _observe_trial(tr: Tracer, profile, sampler, seed, trial):
    tr.distinct["polygon.sample_state"].add((profile.dims, sampler, int(seed), int(trial)))


def _observe_negativity(tr: Tracer, state, block):
    data = state.amplitudes if hasattr(state, "amplitudes") else state.matrix
    tr.neg_dims[state.profile.total_dim] += 1
    tr.neg_support.append(np.count_nonzero(data) / data.size)
    key = _state_key(state)
    tr.distinct["states"].add(key)
    tr.distinct["measures.negativity"].add((key, _canonical_cut(state.profile.n, block)))


# (module whose binding is replaced, attribute, layer name, observer)
HOOKS = (
    ("entpoly.measures", "reduced_spectrum", "tensor.reduced_spectrum", _observe_spectrum),
    ("entpoly.polygon", "haar_random_ket", "tensor.haar_random_ket", None),
    ("entpoly.polygon", "sample_state", "polygon.sample_state", _observe_trial),
    ("entpoly.polygon", "measure_value", "measures.measure_value", None),
    ("entpoly.polygon", "one_to_rest_values", "polygon.one_to_rest_values", None),
    ("entpoly.polygon", "epi_residuals", "polygon.epi_residuals", None),
    ("entpoly.polygon", "audit_random", "polygon.audit_random", None),
    ("entpoly.measures", "negativity", "measures.negativity", _observe_negativity),
    ("entpoly.gallery", "gw_state", "gallery.gw_state", None),
    ("entpoly.gallery", "gw_negativity_closed", "gallery.gw_negativity_closed", None),
    ("entpoly.cli", "audit_random", "polygon.audit_random", None),
    ("entpoly.cli", "one_to_rest_values", "polygon.one_to_rest_values", None),
    ("entpoly.cli", "load_state", "cli.load_state", None),
    ("entpoly.cli", "_emit", "cli._emit", None),
    ("entpoly.cli", "json_dumps", "cli.json_dumps", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every hooked binding with a traced wrapper; restore on exit."""
    saved = []
    try:
        for module_name, attr, layer, observe in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, layer, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: int) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    """Order-independent (exactly rounded) mean, so it repeats across input orders."""
    return math.fsum(values) / len(values) if values else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer values named as in BENCHMARK.json (0 where a layer was not hit)."""
    c, s, d = tr.calls, tr.self_s, tr.distinct
    spec, trial, neg = "tensor.reduced_spectrum", "polygon.sample_state", "measures.negativity"
    return {
        f"{spec}.calls": c[spec],
        f"{spec}.self_s": s[spec],
        f"{spec}.matrix_elems": tr.matrix_elems[spec],
        f"{spec}.calls_per_distinct_cut": _ratio(c[spec], len(d[spec])),
        "tensor.haar_random_ket.calls": c["tensor.haar_random_ket"],
        "tensor.haar_random_ket.self_s": s["tensor.haar_random_ket"],
        f"{trial}.calls": c[trial],
        f"{trial}.self_s": s[trial],
        f"{trial}.calls_per_distinct_trial": _ratio(c[trial], len(d[trial])),
        "measures.measure_value.calls": c["measures.measure_value"],
        "measures.measure_value.self_s": s["measures.measure_value"],
        "polygon.one_to_rest_values.self_s": s["polygon.one_to_rest_values"],
        "polygon.epi_residuals.calls": c["polygon.epi_residuals"],
        "polygon.epi_residuals.self_s": s["polygon.epi_residuals"],
        "polygon.audit_random.self_s": s["polygon.audit_random"],
        f"{neg}.calls": c[neg],
        f"{neg}.self_s": s[neg],
        f"{neg}.input_support_frac": _mean(tr.neg_support),
        f"{neg}.input_dim_max": max(tr.neg_dims, default=0),
        "gallery.gw_state.calls": c["gallery.gw_state"],
        "gallery.gw_state.self_s": s["gallery.gw_state"],
        "gallery.gw_negativity_closed.self_s": s["gallery.gw_negativity_closed"],
        "cli.load_state.self_s": s["cli.load_state"],
        "cli._emit.self_s": s["cli._emit"],
        "cli.json_dumps.self_s": s["cli.json_dumps"],
    }


def input_properties(tr: Tracer) -> dict:
    """What the traced pass fed the measured layers: sparsity, sizes, reuse."""
    return {
        "negativity_support_frac_mean": _mean(tr.neg_support),
        "negativity_full_support_share": (
            float(np.mean(np.asarray(tr.neg_support) == 1.0)) if tr.neg_support else None
        ),
        "negativity_dim_histogram": {str(k): v for k, v in sorted(tr.neg_dims.items())},
        "distinct_states": len(tr.distinct["states"]),
        "distinct_cuts": len(tr.distinct["tensor.reduced_spectrum"] | tr.distinct["measures.negativity"]),
        "distinct_trials": len(tr.distinct["polygon.sample_state"]),
    }
