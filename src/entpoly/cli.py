"""Command-line front end: measures, polygon checks, sweeps, audits, indicator.

State sources are either ``gallery:<name>`` or a path to a JSON state file
``{"dims": [...], "amplitudes": [[re, im], ...]}`` with flat row-major
amplitudes (subsystem 1 most significant).  JSON output carries 17
significant digits, CSV 12.  Exit codes: 0 contract satisfied, 1 inequality
verdict contrary to the proven direction, 2 input error, 3 internal error.
Commands return their verdict; the `entpoly` group alone turns an outcome
into an exit code, and the library does all input validation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import click
import numpy as np

from .gallery import EXAMPLE1_PAPER_VALUES, named_state
from .measures import SPECTRUM_MEASURES, MeasureKind
from .polygon import (
    SAMPLERS,
    _check_alpha,
    alpha_sweep,
    audit_random,
    epi_report,
    indicator_delta,
    one_to_rest_values,
)
from .tensor import NORM_TOL, DimensionProfile, InputError, Ket, Partition, _array, _norm, _unit, _whole

STATE_NORM_REJECT = 1e-6
STATE_NORM_WARN = 1e-9

# Largest `sweep --steps`: 100x the figures' 100-point grids, checked before
# linspace allocates (a million steps took 400 MB and 21 s to print 44 MB).
MAX_GRID_STEPS = 10_000


def _format_number(x, digits: int) -> str:
    """A finite number as text; NaN and inf are an internal error, never printed as a result."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if not math.isfinite(x):
        raise ValueError(f"refusing to print the non-finite number {x!r}")
    return format(float(x), f".{digits}g")


def json_dumps(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits; -0.0 keeps its sign as a float, NaN and inf raise."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        text = _format_number(obj, 17)
        return "-0.0" if text == "-0" else text  # only a negative-zero float prints "-0"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {json_dumps(v)}" for k, v in obj.items()) + "}"
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(payload: dict, csv_header: list[str], csv_rows: list[list], fmt: str) -> None:
    if fmt == "json":
        click.echo(json_dumps(payload))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(csv_header)
    for row in csv_rows:
        writer.writerow([v if isinstance(v, str) else _format_number(v, 12) for v in row])
    click.echo(buf.getvalue(), nl=False)


def read_state_file(path: str) -> Ket:
    """Load a StateFile: reject norms off by more than 1e-6, rescale beyond NORM_TOL, keep the rest exact."""
    try:
        with open(path, encoding="utf-8") as fp:
            data = json.load(fp)
    except OSError as exc:
        raise InputError(f"cannot read state file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"state file {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"state file {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # json's decoder recurses once per nested array or object
        raise InputError(f"state file {path!r} nests too deeply: {exc}") from exc
    if not isinstance(data, dict) or "dims" not in data or "amplitudes" not in data:
        raise InputError(f"state file {path!r} must carry 'dims' and 'amplitudes'")
    try:  # InputError is a ValueError, so the profile's own rejections name the file too
        profile = DimensionProfile(data["dims"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"state file {path!r} needs integer dims: {exc}") from exc
    pairs = _array(data["amplitudes"], f"state file {path!r} amplitudes")
    if pairs.shape != (profile.total_dim, 2):
        raise InputError(f"state file {path!r} needs {profile.total_dim} [re, im] amplitude pairs, got {pairs.shape}")
    amp = pairs.view(complex).reshape(-1)  # each C-contiguous (re, im) row is one complex, bit for bit
    nrm = _norm(amp)
    if abs(nrm - 1.0) > STATE_NORM_REJECT:
        raise InputError(f"state file {path!r} norm {nrm} is too far from 1")
    if abs(nrm - 1.0) > STATE_NORM_WARN:
        click.echo(f"warning: renormalizing state {path!r} (|norm - 1| = {abs(nrm - 1.0):.3e})", err=True)
    return Ket(profile, _unit(amp, f"state file {path!r} amplitudes") if abs(nrm - 1.0) > NORM_TOL else amp)


def write_state_file(path: str, psi: Ket) -> None:
    payload = {
        "dims": list(psi.profile.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }
    with open(path, "w") as fp:  # repr floats, so -0.0 stays a float and keeps its sign
        json.dump(payload, fp)
        fp.write("\n")


def load_state(source: str) -> Ket:
    if source.startswith("gallery:"):
        return named_state(source[len("gallery:"):])
    return read_state_file(source)


def _resolve(state: str, partition_text: str | None, measure: str, q) -> tuple[Ket, Partition, MeasureKind]:
    """The state, partition (default: singletons) and measure that a state command names."""
    psi = load_state(state)
    part = Partition.singletons(psi.profile.n) if partition_text is None else Partition.parse(partition_text)
    return psi, part, MeasureKind(measure, q)


def _parse_dims(text: str) -> DimensionProfile:
    try:
        dims = tuple(int(tok) for tok in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse dims {text!r}") from exc
    return DimensionProfile(dims)


def _alpha_grid(lo: float, hi: float, steps: int, allow_unproven: bool) -> list[float]:
    # Both bounds before linspace: a one-step grid leaves hi unsampled, and a
    # non-finite bound would make linspace warn and fill the grid with NaN.
    lo = _check_alpha(lo, allow_unproven, "alpha (--alpha-min)")
    hi = _check_alpha(hi, allow_unproven, "alpha (--alpha-max)")
    if hi < lo:
        raise InputError(f"alpha grid [{lo}, {hi}] must be ordered")
    return [float(a) for a in np.linspace(lo, hi, _whole(steps, "grid step count", 1, MAX_GRID_STEPS))]


def _warn_unproven(payload: dict, alphas) -> None:
    if any(a > 1.0 for a in alphas):
        payload["unproven_regime"] = True
        click.echo("warning: alpha > 1 is an unproven regime for these inequalities", err=True)


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
_state_option = click.option("--state", required=True, help="gallery:<name> or a state-file path")
_partition_option = click.option(
    "--partition", "partition_text", default=None, help='e.g. "1|2,3|4" (default singletons)'
)
_measure_option = click.option("--measure", type=click.Choice(list(SPECTRUM_MEASURES)), required=True)
_q_option = click.option("--q", type=float, default=None, help="q for qconcurrence (default 2)")
_unproven_option = click.option("--allow-unproven-alpha", "allow_unproven", is_flag=True)
_expect_option = click.option(
    "--expect-violation", "expect_violation", is_flag=True,
    help="succeed when the inequality is violated (counterexample families)",
)


class _ExitCodeGroup(click.Group):
    """The one place an outcome becomes an exit code.

    A command's returned verdict is the code (None is 0); `InputError` exits 2
    and any other exception exits 3, each with one line on stderr.  click's
    own exits, usage errors and aborts (and a closed stdout pipe) keep click's
    handling, so `--help` stays 0 and a bad option stays 2.
    """

    def invoke(self, ctx):
        try:
            code = super().invoke(ctx) or 0
        except (click.ClickException, click.exceptions.Exit, click.Abort, BrokenPipeError):
            raise
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            code = 2
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            code = 3
        sys.exit(code)


@click.group(cls=_ExitCodeGroup)
def main():
    """Entanglement polygon inequalities on multi-qudit pure states."""


@main.command("measure")
@_state_option
@_partition_option
@_measure_option
@_q_option
@_format_option
def cmd_measure(state, partition_text, measure, q, fmt):
    """One-to-rest measure values for each partition block."""
    psi, part, kind = _resolve(state, partition_text, measure, q)
    values = one_to_rest_values(psi, part, kind)
    payload = {
        "command": "measure",
        "state": state,
        "partition": str(part),
        "measure": kind.label,
        "values": [float(v) for v in values],
    }
    rows = [[b, float(v)] for b, v in zip(str(part).split("|"), values)]
    _emit(payload, ["block", "value"], rows, fmt)


@main.command("epi-check")
@_state_option
@_partition_option
@_measure_option
@_q_option
@click.option("--alpha", type=float, default=1.0, show_default=True)
@_expect_option
@_unproven_option
@_format_option
def cmd_epi_check(state, partition_text, measure, q, alpha, expect_violation, allow_unproven, fmt):
    """Check the polygon inequality; exit 0 if it holds, 1 if violated."""
    psi, part, kind = _resolve(state, partition_text, measure, q)
    report = epi_report(psi, part, kind, alpha, allow_unproven=allow_unproven)
    payload = {
        "command": "epi-check",
        "state": state,
        "partition": str(part),
        "measure": kind.label,
        "alpha": alpha,
        "values": list(report.values),
        "residuals": list(report.residuals),
        "min_residual": report.min_residual,
        "holds": report.holds,
    }
    _warn_unproven(payload, [alpha])
    rows = [[b, v, r] for b, v, r in zip(str(part).split("|"), report.values, report.residuals)]
    _emit(payload, ["block", "value", "residual"], rows, fmt)
    verdict_ok = (not report.holds) if expect_violation else report.holds
    return 0 if verdict_ok else 1


@main.command("sweep")
@click.option("--state", default=None, help="state source, or gallery:example1-paper-values")
@click.option("--values", "values_text", default=None, help="explicit comma-separated values")
@_partition_option
@click.option(
    "--measure", type=click.Choice(list(SPECTRUM_MEASURES)), default=None,
    help="measure of a measured --state (default negativity)",
)
@_q_option
@click.option("--block", type=int, default=None, help="designated block, 1-based (default: largest value)")
@click.option("--alpha-min", type=float, default=0.01, show_default=True)
@click.option("--alpha-max", type=float, default=1.0, show_default=True)
@click.option("--steps", type=int, default=100, show_default=True)
@_unproven_option
@_format_option
def cmd_sweep(state, values_text, partition_text, measure, q, block, alpha_min, alpha_max, steps, allow_unproven, fmt):
    """Residual of the designated block across an exponent grid (figure data)."""
    if (state is None) == (values_text is None):
        raise InputError("pass exactly one of --state or --values")
    if state not in (None, "gallery:example1-paper-values"):
        values = one_to_rest_values(*_resolve(state, partition_text, measure or "negativity", q))
    else:
        options = (("--partition", partition_text), ("--measure", measure), ("--q", q))
        given = [name for name, value in options if value is not None]
        if given:
            raise InputError(f"{', '.join(given)}: applies only to a measured --state, not to given values")
        if state is None:
            try:
                values = np.array([float(tok) for tok in values_text.split(",")])
            except ValueError as exc:
                raise InputError(f"cannot parse --values {values_text!r}: {exc}") from exc
        else:
            values = np.array(EXAMPLE1_PAPER_VALUES)
    source = "values" if state is None else state
    grid = _alpha_grid(alpha_min, alpha_max, steps, allow_unproven)
    designated = int(np.argmax(values)) + 1 if block is None else _whole(block, "designated block", 1, len(values))
    points = [[a, g] for a, g in alpha_sweep(values, grid, block=designated - 1, allow_unproven=allow_unproven)]
    payload = {
        "command": "sweep",
        "source": source,
        "values": [float(v) for v in values],
        "block": designated,
        "points": points,
    }
    _warn_unproven(payload, grid)
    _emit(payload, ["alpha", "residual"], points, fmt)


@main.command("audit")
@click.option("--dims", required=True, help='profile, e.g. "2,2,2" (spectra dims for purification)')
@_partition_option
@_measure_option
@_q_option
@click.option("--sampler", type=click.Choice(list(SAMPLERS)), default="haar", show_default=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--alpha", type=float, default=1.0, show_default=True)
@_expect_option
@_unproven_option
@_format_option
def cmd_audit(dims, partition_text, measure, q, sampler, trials, seed, alpha, expect_violation, allow_unproven, fmt):
    """Randomized polygon audit; violations where the inequality is proven exit 1."""
    profile = _parse_dims(dims)
    part = None if partition_text is None else Partition.parse(partition_text)
    kind = MeasureKind(measure, q)
    summary = audit_random(profile, part, kind, alpha, trials, seed, sampler=sampler, allow_unproven=allow_unproven)
    payload = {
        "command": "audit",
        "dims": list(profile.dims),
        "partition": str(summary.partition),
        "measure": kind.label,
        "sampler": sampler,
        "alpha": alpha,
        "trials": summary.trials,
        "seed": summary.seed,
        "violations": summary.violations,
        "worst_residual": summary.worst_residual,
        "worst_trial": summary.worst_trial,
        "worst_seed": list(summary.worst_seed),
    }
    _warn_unproven(payload, [alpha])
    rows = [[summary.trials, summary.violations, summary.worst_residual, summary.worst_trial]]
    _emit(payload, ["trials", "violations", "worst_residual", "worst_trial"], rows, fmt)
    expected = summary.trials if expect_violation else 0
    return 0 if summary.violations == expected else 1


@main.command("indicator")
@_state_option
@click.option("--alpha", type=float, default=0.5, show_default=True)
@_format_option
def cmd_indicator(state, alpha, fmt):
    """Geometric-measure indicator delta and the per-party tau values."""
    psi = load_state(state)
    delta, taus = indicator_delta(psi, alpha)
    payload = {
        "command": "indicator",
        "state": state,
        "alpha": alpha,
        "tau": [float(t) for t in taus],
        "delta": delta,
    }
    rows = [[str(i + 1), float(t)] for i, t in enumerate(taus)] + [["delta", delta]]
    _emit(payload, ["party", "tau"], rows, fmt)


if __name__ == "__main__":
    main()
