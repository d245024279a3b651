"""The four benchmark workloads: inputs from a seed, program calls, output checks.

Each workload is a sequence of *cycles*.  A cycle has a fixed shape (the same
mix of input sizes every time) and fresh inputs drawn from (seed, cycle), so a
run that stops at a cycle boundary always measures the same mix.  Inputs are
built untimed; program calls are timed; reference checks run after the call,
untimed and, in a traced pass, untraced.  The GW closed form is the exception:
it is gallery code traced as a layer of its own, so it counts as timed work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from entpoly import gallery, measures, polygon
from entpoly.measures import CONCURRENCE, GEM, q_concurrence_kind
from entpoly.tensor import DensityOp, DimensionProfile, Ket, Partition, iter_partitions

ROOT = Path(__file__).resolve().parent.parent
REF_DIR = Path(__file__).resolve().parent / "ref"
CHECK_TOL = 1e-9


class Recorder:
    """Timed seconds, per-call latencies and op outcomes of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.ops = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        self.latencies.append(dt)
        self.timed_s += dt
        return out

    def work(self, fn, *args, **kwargs):
        """Program work that belongs to the op and is timed, but is not the measured call."""
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.timed_s += perf_counter() - t0
        return out


def _checks(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _set_op(tracer, op):
    if tracer is not None:
        tracer.op = op


def _random_block(rng, n: int) -> tuple[int, ...]:
    """A uniformly drawn non-empty proper subset of 1..n."""
    while True:
        mask = rng.integers(0, 2, size=n).astype(bool)
        if 0 < mask.sum() < n:
            return tuple(int(i) + 1 for i in np.flatnonzero(mask))


# --------------------------------------------------------------------------
# audit_sweep: the acceptance criteria 4-5 shape


AUDIT_PROFILES = ((2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2))
AUDIT_ALPHAS = (0.25, 0.5, 0.75, 1.0)
# Master seeds whose (violations, worst_residual, worst_trial) were recorded
# at the reference commit; cycle c of a run uses AUDIT_SEEDS[(seed + c) % 8].
AUDIT_SEEDS = tuple(range(1000, 1008))


def audit_key(dims, partition, kind, alpha) -> str:
    blocks = "|".join(",".join(map(str, b)) for b in partition.blocks)
    return f"{','.join(map(str, dims))};{blocks};{kind.label};{alpha:g}"


def audit_grid():
    """Every (profile, partition with 2-4 blocks, measure, alpha) of the sweep."""
    kinds = (GEM, CONCURRENCE, q_concurrence_kind(2))
    grid = []
    for dims in AUDIT_PROFILES:
        profile = DimensionProfile(dims)
        for part in iter_partitions(profile.n, 2, 4):
            for alpha in AUDIT_ALPHAS:
                for kind in kinds:
                    grid.append((audit_key(dims, part, kind, alpha), profile, part, kind, alpha))
    return grid


def format_audit(summary) -> list:
    return [summary.violations, format(summary.worst_residual, ".17g"), summary.worst_trial]


class AuditSweep:
    """One cycle is the full profile x partition x alpha x measure sweep."""

    name = "audit_sweep"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.trials = 3 if tiny else 200
        self.grid = audit_grid()
        with open(REF_DIR / "audit_sweep.json") as fp:
            self.refs = json.load(fp)["results"][str(self.trials)]
        self.size = {
            "trials_per_audit": self.trials,
            "audits_per_cycle": len(self.grid),
            "profiles": [list(p) for p in AUDIT_PROFILES],
            "alphas": list(AUDIT_ALPHAS),
            "measures": ["gem", "concurrence", "qconcurrence(q=2)"],
            "op": "one trial-check inside audit_random",
        }

    def build(self, c: int):
        master = AUDIT_SEEDS[(self.seed + c) % len(AUDIT_SEEDS)]
        order = np.random.default_rng([self.seed, c, 0]).permutation(len(self.grid))
        return master, [self.grid[i] for i in order]

    def warmup(self, inputs):
        master, audits = inputs
        _, profile, part, kind, alpha = audits[0]
        polygon.audit_random(profile, part, kind, alpha, self.trials, master)

    def run(self, inputs, rec: Recorder, tracer=None):
        master, audits = inputs
        refs = self.refs[str(master)]
        for key, profile, part, kind, alpha in audits:
            _set_op(tracer, rec.ops)
            summary = rec.call(polygon.audit_random, profile, part, kind, alpha, self.trials, master)
            rec.ops += self.trials
            if format_audit(summary) != refs.get(key):
                rec.failed += self.trials


# --------------------------------------------------------------------------
# gw_tracenorm: the criterion 7 shape, sparse kets on the dense trace-norm path


# Every (n, d) of the acceptance criterion once and the two largest (D = 256,
# D = 1024) twice: 11 specs of 3 calls, which puts call_p50_ms and call_p90_ms
# inside one size group rather than on the edge between two.
GW_SHAPES = tuple((n, d) for n in (3, 4, 5) for d in (1, 2, 3)) + ((4, 3), (5, 3))


class GwTracenorm:
    """One cycle draws a GW spec per entry of GW_SHAPES and a tripartition for each."""

    name = "gw_tracenorm"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.shapes = tuple(s for s in GW_SHAPES if s[0] < 5) if tiny else GW_SHAPES
        self.size = {
            "specs_per_cycle": len(self.shapes),
            "shapes_n_d": [list(s) for s in self.shapes],
            "dims": sorted((d + 1) ** n for n, d in self.shapes),
            "op": "one negativity(gw_state(spec), block) call",
        }

    def build(self, c: int):
        rng = np.random.default_rng([self.seed, c, 1])
        out = []
        for i in rng.permutation(len(self.shapes)):
            n, d = self.shapes[i]
            coeffs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            while True:
                labels = rng.integers(0, 3, size=n)
                if len(set(labels.tolist())) == 3:
                    break
            blocks = tuple(tuple(j + 1 for j in range(n) if labels[j] == b) for b in range(3))
            out.append((gallery.gw_spec(coeffs), Partition(blocks)))
        return out

    def warmup(self, inputs):
        spec, part = max(inputs, key=lambda sp: sp[0].coeffs.size)
        measures.negativity(gallery.gw_state(spec), part.blocks[0])

    def run(self, inputs, rec: Recorder, tracer=None):
        for spec, part in inputs:
            _set_op(tracer, rec.ops)
            psi = rec.work(gallery.gw_state, spec)
            values = [rec.call(measures.negativity, psi, block) for block in part.blocks]
            closed = rec.work(gallery.gw_negativity_closed, spec, part)
            rec.ops += len(values)
            rec.failed += int(np.sum(~(np.abs(np.asarray(values) - closed) <= CHECK_TOL)))


# --------------------------------------------------------------------------
# dense_tracenorm: the same negativity layer on full-support inputs


# D = 8 .. 1024; two profiles reach D = 1024 (qubits and ququarts), which puts
# call_p90_ms inside the D = 1024 group rather than on the edge between groups.
DENSE_PROFILES = (
    (2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 3, 3, 3),
    (2,) * 7, (3,) * 5, (4, 4, 4, 4), (2,) * 9, (2,) * 10, (4,) * 5,
)


class DenseTracenorm:
    """One cycle: a Haar ket and a random density per profile (D = 8 .. 1024)."""

    name = "dense_tracenorm"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.profiles = DENSE_PROFILES[:4] if tiny else DENSE_PROFILES
        self.size = {
            "dims": [int(np.prod(p)) for p in self.profiles],
            "inputs_per_cycle": "one ket (1 call) and one density (2 calls: block, complement) per D",
            "density_rank": "2..8",
            "op": "one negativity(state, block) call",
        }

    def build(self, c: int):
        # Built in a fixed order (so the memory held while building does not
        # depend on the seed) and run in a shuffled one.
        rng = np.random.default_rng([self.seed, c, 2])
        out = []
        for dims in self.profiles:
            profile = DimensionProfile(dims)
            D = profile.total_dim
            z = rng.standard_normal(D) + 1j * rng.standard_normal(D)
            out.append((Ket(profile, z / np.linalg.norm(z)), _random_block(rng, profile.n)))
            rank = int(rng.integers(2, 9))
            G = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
            mat = G @ G.conj().T
            mat /= float(np.trace(mat).real)
            out.append((DensityOp(profile, (mat + mat.conj().T) / 2.0), _random_block(rng, profile.n)))
        return [out[i] for i in rng.permutation(len(out))]

    def warmup(self, inputs):
        state, block = max(inputs, key=lambda sb: sb[0].profile.total_dim)
        measures.negativity(state, block)

    def run(self, inputs, rec: Recorder, tracer=None):
        for state, block in inputs:
            _set_op(tracer, rec.ops)
            if isinstance(state, Ket):
                value = rec.call(measures.negativity, state, block)
                rec.ops += 1
                with _checks(tracer):
                    ok = abs(value - measures.negativity_pure_schmidt(state, block)) <= CHECK_TOL
                rec.failed += 0 if ok else 1
            else:
                value = rec.call(measures.negativity, state, block)
                other = rec.call(measures.negativity, state, state.profile.complement(block))
                rec.ops += 2
                rec.failed += 0 if abs(value - other) <= CHECK_TOL else 2


# --------------------------------------------------------------------------
# cli_mix: sequential `python -m entpoly.cli` subprocesses


def cli_catalogue() -> dict[str, list[tuple[str, ...]]]:
    """Every argv the workload may run, grouped by command; all must exit 0."""
    audit = [
        ("audit", "--dims", dims, "--measure", measure, "--trials", "40", "--seed", str(s), "--alpha", alpha)
        for s, (dims, measure, alpha) in enumerate([
            ("2,2,2", "gem", "0.5"), ("3,3,3", "concurrence", "1"), ("2,3,4", "qconcurrence", "0.75"),
            ("2,2,2,2", "gem", "0.25"), ("2,2,2", "concurrence", "0.25"), ("3,3,3", "qconcurrence", "0.5"),
            ("2,3,4", "gem", "1"), ("2,2,2,2", "concurrence", "0.75"),
        ])
    ]
    epi = [
        ("epi-check", "--state", "gallery:example2", "--measure", "negativity", "--alpha", alpha,
         "--expect-violation", "--format", fmt)
        for alpha in ("0.6", "0.75", "0.9", "1") for fmt in ("json", "csv")
    ]
    sweep = [
        ("sweep", "--state", "gallery:example3", "--partition", part, "--measure", "negativity",
         "--steps", steps, "--format", "csv")
        for part in ("1|2,3|4", "1,2|3|4", "1|2|3,4", "1,4|2|3") for steps in ("99", "100")
    ]
    measure = [
        ("measure", "--state", f"gallery:{state}", "--measure", kind)
        for state in ("example1", "example2", "example3", "ghz(3)", "w(4)", "bell")
        for kind in ("gem", "concurrence")
    ] + [("measure", "--state", "gallery:example3", "--partition", "1|2,3|4", "--measure", "negativity")]
    indicator = [
        ("indicator", "--state", f"gallery:{state}", "--alpha", alpha)
        for state in ("ghz(3)", "w(3)", "example1") for alpha in ("0.1", "0.5", "0.9")
    ]
    return {"audit": audit, "epi-check": epi, "sweep": sweep, "measure": measure, "indicator": indicator}


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(argv) -> tuple[int, bytes, int]:
    """Invoke the CLI in a fresh interpreter; returns (exit code, stdout, max RSS in KiB)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "entpoly.cli", *argv],
        cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def replay_cli(argv) -> tuple[int, bytes]:
    """Run the same argv in this process through `main(..., standalone_mode=False)`."""
    from entpoly import cli  # imported only here: library workloads never pay for click

    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(list(argv), standalone_mode=False, prog_name="entpoly")
        except SystemExit as exc:
            code = exc.code or 0
    return code, buf.getvalue().encode()


class CliMix:
    """One cycle runs each of the five commands once, in a seed-shuffled order."""

    name = "cli_mix"
    EXPECTED_EXIT = 0  # README contract: 0 means the command's contract was met

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.catalogue = cli_catalogue()
        with open(REF_DIR / "cli_mix.json") as fp:
            self.refs = json.load(fp)["stdout"]
        self.in_process = False
        self.peak_rss_kib = 0
        self.size = {
            "invocations_per_cycle": len(self.catalogue),
            "argv_variants": sum(len(v) for v in self.catalogue.values()),
            "op": "one `python -m entpoly.cli` invocation",
        }

    def build(self, c: int):
        rng = np.random.default_rng([self.seed, c, 3])
        if self.in_process:  # a traced replay covers every argv, so its counts do not depend on the seed
            picks = [argv for variants in self.catalogue.values() for argv in variants]
        else:
            picks = [v[int(rng.integers(len(v)))] for v in self.catalogue.values()]
        return [picks[i] for i in rng.permutation(len(picks))]

    def warmup(self, inputs):
        if self.in_process:
            replay_cli(inputs[0])
        else:
            run_cli(inputs[0])

    def run(self, inputs, rec: Recorder, tracer=None):
        for argv in inputs:
            _set_op(tracer, rec.ops)
            if self.in_process:
                code, out = rec.call(replay_cli, argv)
            else:
                code, out, rss = rec.call(run_cli, argv)
                self.peak_rss_kib = max(self.peak_rss_kib, rss)
            rec.ops += 1
            if code != self.EXPECTED_EXIT or out != self.refs[" ".join(argv)].encode():
                rec.failed += 1


WORKLOADS = {w.name: w for w in (AuditSweep, GwTracenorm, DenseTracenorm, CliMix)}
