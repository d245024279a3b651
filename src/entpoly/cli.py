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
import sys

import click
import numpy as np

from .gallery import EXAMPLE1_PAPER_VALUES, named_state
from .measures import SPECTRUM_MEASURES, MeasureKind
from .polygon import (
    SAMPLERS,
    VIOLATION_TOL,
    _check_alpha,
    alpha_sweep,
    audit_random,
    epi_report,
    indicator_delta,
    one_to_rest_values,
)
from .tensor import DimensionProfile, InputError, Ket, Partition

STATE_NORM_REJECT = 1e-6
STATE_NORM_WARN = 1e-9


def _format_number(x, digits: int) -> str:
    if isinstance(x, bool) or isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), f".{digits}g")


def json_dumps(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_number(obj, 17)
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
    """Load a StateFile, normalizing on load; reject norms off by more than 1e-6."""
    try:
        with open(path) as fp:
            data = json.load(fp)
    except OSError as exc:
        raise InputError(f"cannot read state file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"state file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "dims" not in data or "amplitudes" not in data:
        raise InputError(f"state file {path!r} must carry 'dims' and 'amplitudes'")
    try:  # InputError is a ValueError, so the profile's own rejections name the file too
        profile = DimensionProfile(data["dims"])
        amp = np.array([complex(float(re), float(im)) for re, im in data["amplitudes"]])
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"state file {path!r} needs integer dims and [re, im] amplitude pairs: {exc}"
        ) from exc
    if len(amp) != profile.total_dim:
        raise InputError(
            f"state file {path!r} has {len(amp)} amplitudes, dims need {profile.total_dim}"
        )
    if not np.isfinite(amp).all():
        raise InputError(f"state file {path!r} has non-finite amplitudes")
    nrm = float(np.linalg.norm(amp))
    if abs(nrm - 1.0) > STATE_NORM_REJECT:
        raise InputError(f"state file {path!r} norm {nrm} is too far from 1")
    if abs(nrm - 1.0) > STATE_NORM_WARN:
        click.echo(f"warning: renormalizing state {path!r} (|norm - 1| = {abs(nrm - 1.0):.3e})", err=True)
    return Ket(profile, amp / nrm)


def write_state_file(path: str, psi: Ket) -> None:
    payload = {
        "dims": list(psi.profile.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }
    with open(path, "w") as fp:
        fp.write(json_dumps(payload))
        fp.write("\n")


def load_state(source: str) -> Ket:
    if source.startswith("gallery:"):
        return named_state(source[len("gallery:"):])
    return read_state_file(source)


def _partition_str(partition: Partition) -> str:
    return "|".join(",".join(str(i) for i in block) for block in partition.blocks)


def _resolve_partition(text: str | None, psi: Ket) -> Partition:
    return Partition.singletons(psi.profile.n) if text is None else Partition.parse(text)


def _parse_dims(text: str) -> DimensionProfile:
    try:
        dims = tuple(int(tok) for tok in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse dims {text!r}") from exc
    return DimensionProfile(dims)


def _alpha_grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 1:
        raise InputError(f"need at least 1 grid step, got {steps}")
    if hi < lo:
        raise InputError(f"alpha grid [{lo}, {hi}] must be ordered")
    return [float(a) for a in np.linspace(lo, hi, steps)]


def _warn_unproven(payload: dict, alphas) -> None:
    if any(a > 1.0 for a in alphas):
        payload["unproven_regime"] = True
        click.echo("warning: alpha > 1 is an unproven regime for these inequalities", err=True)


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
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
@click.option("--state", required=True, help="gallery:<name> or a state-file path")
@click.option("--partition", "partition_text", default=None, help='e.g. "1|2,3|4" (default singletons)')
@_measure_option
@_q_option
@_format_option
def cmd_measure(state, partition_text, measure, q, fmt):
    """One-to-rest measure values for each partition block."""
    psi = load_state(state)
    part = _resolve_partition(partition_text, psi)
    kind = MeasureKind(measure, q)
    values = one_to_rest_values(psi, part, kind)
    payload = {
        "command": "measure",
        "state": state,
        "partition": _partition_str(part),
        "measure": kind.label,
        "values": [float(v) for v in values],
    }
    rows = [[",".join(map(str, b)), float(v)] for b, v in zip(part.blocks, values)]
    _emit(payload, ["block", "value"], rows, fmt)


@main.command("epi-check")
@click.option("--state", required=True)
@click.option("--partition", "partition_text", default=None)
@_measure_option
@_q_option
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--tolerance", type=float, default=VIOLATION_TOL, show_default=True)
@_expect_option
@_unproven_option
@_format_option
def cmd_epi_check(state, partition_text, measure, q, alpha, tolerance, expect_violation, allow_unproven, fmt):
    """Check the polygon inequality; exit 0 if it holds, 1 if violated."""
    psi = load_state(state)
    part = _resolve_partition(partition_text, psi)
    kind = MeasureKind(measure, q)
    report = epi_report(psi, part, kind, alpha, tolerance=tolerance, allow_unproven=allow_unproven)
    payload = {
        "command": "epi-check",
        "state": state,
        "partition": _partition_str(part),
        "measure": kind.label,
        "alpha": alpha,
        "values": list(report.values),
        "residuals": list(report.residuals),
        "min_residual": report.min_residual,
        "holds": report.holds,
    }
    _warn_unproven(payload, [alpha])
    rows = [
        [",".join(map(str, b)), v, r]
        for b, v, r in zip(part.blocks, report.values, report.residuals)
    ]
    _emit(payload, ["block", "value", "residual"], rows, fmt)
    verdict_ok = (not report.holds) if expect_violation else report.holds
    return 0 if verdict_ok else 1


@main.command("sweep")
@click.option("--state", default=None, help="state source, or gallery:example1-paper-values")
@click.option("--values", "values_text", default=None, help="explicit comma-separated values")
@click.option("--partition", "partition_text", default=None)
@click.option(
    "--measure",
    type=click.Choice(list(SPECTRUM_MEASURES)),
    default="negativity",
    show_default=True,
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
    if values_text is not None:
        try:
            values = np.array([float(tok) for tok in values_text.split(",")])
        except ValueError as exc:
            raise InputError(f"cannot parse --values {values_text!r}: {exc}") from exc
        source = "values"
    elif state == "gallery:example1-paper-values":
        values = np.array(EXAMPLE1_PAPER_VALUES)
        source = state
    else:
        psi = load_state(state)
        part = _resolve_partition(partition_text, psi)
        kind = MeasureKind(measure, q)
        values = one_to_rest_values(psi, part, kind)
        source = state
    _check_alpha(alpha_max, allow_unproven)  # also when a one-step grid leaves it unsampled
    grid = _alpha_grid(alpha_min, alpha_max, steps)
    block0 = None if block is None else block - 1
    points = alpha_sweep(values, grid, block=block0, allow_unproven=allow_unproven)
    designated = block if block is not None else int(np.argmax(values)) + 1
    payload = {
        "command": "sweep",
        "source": source,
        "values": [float(v) for v in values],
        "block": designated,
        "points": [[a, g] for a, g in points],
    }
    _warn_unproven(payload, grid)
    _emit(payload, ["alpha", "residual"], [[a, g] for a, g in points], fmt)


@main.command("audit")
@click.option("--dims", required=True, help='profile, e.g. "2,2,2" (spectra dims for purification)')
@click.option("--partition", "partition_text", default=None)
@_measure_option
@_q_option
@click.option("--sampler", type=click.Choice(list(SAMPLERS)), default="haar", show_default=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--tolerance", type=float, default=VIOLATION_TOL, show_default=True)
@_expect_option
@_unproven_option
@_format_option
def cmd_audit(dims, partition_text, measure, q, sampler, trials, seed, alpha, tolerance,
              expect_violation, allow_unproven, fmt):
    """Randomized polygon audit; violations where the inequality is proven exit 1."""
    profile = _parse_dims(dims)
    part = None if partition_text is None else Partition.parse(partition_text)
    kind = MeasureKind(measure, q)
    summary = audit_random(
        profile, part, kind, alpha, trials, seed,
        sampler=sampler, tolerance=tolerance, allow_unproven=allow_unproven,
    )
    payload = {
        "command": "audit",
        "dims": list(profile.dims),
        "partition": _partition_str(summary.partition),
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
@click.option("--state", required=True)
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
