"""Polygon-inequality residuals, the delta indicator, and randomized audits.

For a partition {P_1, ..., P_k} and a measure E, the residual at block j is
r_j = sum_{l != j} E(P_l)^alpha - E(P_j)^alpha; the inequality holds when
every residual clears -VIOLATION_TOL.  One kernel measures a (T, D) stack of
kets with one stacked SVD per distinct block: a single state is the T = 1
case, and an audit draws its (seed, trial) states a chunk of rows at a time,
so any trial replays bit-exactly alone.  `audit_plan` draws each trial once
and shares its spectra across every partition, measure and alpha it audits;
`audit_random` is its single-target case.  The AUDIT_CHUNK_CACHE chunks used
last keep their rows, their block spectra and one value column per (block,
measure name) for the next audit of the same chunk (`_chunk`); residuals and
tallies are computed on every audit, each trial's minimum residual as
S - 2 max_j v_j^alpha (`_trial_mins`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gallery
from .measures import MeasureKind, measure_value  # noqa: F401  (bound here for perfbench/tracing.py)
from .tensor import haar_random_ket  # noqa: F401  (bound here for perfbench/tracing.py)
from .tensor import (
    DimensionProfile, InputError, Ket, Partition, _array, _choice, _haar_rows, _real, _whole, reduced_spectra,
)

# A residual below -VIOLATION_TOL counts as a violation; measure values
# compound several decompositions, so this sits well above the 1e-12
# linear-algebra tolerances.
VIOLATION_TOL = 1e-9

# Measure values at or below this are treated as exact zeros before powering
# (0^alpha := 0): fractional powers would otherwise blow 1e-16 roundoff
# residue up to order one.
MEASURE_FLOOR = 1e-12

# Audits stack trials in chunks of at most this many amplitudes (1 MiB), so
# amplitude memory stays bounded; each target keeps only a running tally.
AUDIT_CHUNK_ELEMS = 1 << 16

# Audit chunks kept by the chunk memo (`_chunk`), each at most AUDIT_CHUNK_ELEMS
# amplitudes plus its block spectra: a memory bound, not a hit-rate target;
# audits that revisit at most this many chunks draw each one once.
AUDIT_CHUNK_CACHE = 4


def _powered(values: np.ndarray, alpha: float) -> np.ndarray:
    out = np.zeros(values.shape)
    big = values > MEASURE_FLOOR
    out[big] = values[big] ** alpha
    return out


def _check_alpha(alpha: float, allow_unproven: bool, what: str = "alpha") -> float:
    """alpha in the proven range (0, 1]; any finite alpha > 0 with the opt-in to the unproven regime."""
    return _real(alpha, what, 0.0, math.inf if allow_unproven else 1.0, lo_open=True, hi_open=allow_unproven)


@dataclass(frozen=True)
class EpiReport:
    """One polygon-inequality evaluation: values, residuals, verdict."""

    partition: Partition
    measure: MeasureKind
    alpha: float
    values: tuple[float, ...]
    residuals: tuple[float, ...]
    min_residual: float
    holds: bool


def _block_spectra(profile: DimensionProfile, amplitudes, partitions, memo: dict) -> dict:
    """Fill `memo` with block -> read-only (T, d_block) spectra of a (T, D) stack of kets, and return it.

    One stacked SVD per block not yet in `memo`.  The partitions must
    already cover the profile (`Partition.validate_for`).
    """
    for partition in partitions:
        for block in partition.blocks:
            if block not in memo:
                lam = reduced_spectra(profile, amplitudes, block)
                # read-only before it is shared; two threads that fill the same
                # block store equal arrays, so this check-then-set needs no lock
                lam.flags.writeable = False
                memo[block] = lam
    return memo


def _check_measure(measure) -> None:
    """A measure is a MeasureKind, not its name."""
    if not isinstance(measure, MeasureKind):
        raise InputError(f"measure must be a MeasureKind, got {measure!r}")


def _block_values(memo: dict, partition: Partition, measure: MeasureKind) -> np.ndarray:
    """(T, k) one-to-rest values in block order, from the spectra `_block_spectra` put in `memo`.

    Each block's read-only (T,) column is kept in `memo` under (block, measure
    name) with the MeasureKind it was computed for, so a qconcurrence of another
    q replaces the column: a block holds at most one column per measure name.
    """
    columns = []
    for block in partition.blocks:
        key = (block, measure.name)
        entry = memo.get(key)
        if entry is None or entry[0] != measure:
            column = measure.of_spectra(memo[block])
            # read-only before it is shared; two threads that fill the same slot
            # for one measure store equal arrays, and each uses its own
            column.flags.writeable = False
            entry = memo[key] = (measure, column)
        columns.append(entry[1])
    return np.stack(columns, axis=-1)


def one_to_rest_values(psi: Ket, partition: Partition, measure: MeasureKind) -> np.ndarray:
    """Measure each block against its complement, in block order."""
    partition.validate_for(psi.profile.n)
    _check_measure(measure)
    return _block_values(_block_spectra(psi.profile, psi.amplitudes, [partition], {}), partition, measure)[0]


def epi_residuals(values, alpha: float, *, allow_unproven: bool = False) -> np.ndarray:
    """r_j = sum_{l != j} v_l^alpha - v_j^alpha for each block j (the last axis)."""
    alpha = _check_alpha(alpha, allow_unproven)
    values = _array(values, "measure values")
    if not values.size or values.ndim < 1 or values.shape[-1] < 2:
        raise InputError(f"a polygon needs at least 2 sides: got measure values of shape {values.shape}")
    if not (values >= 0).all():
        raise InputError("measure values must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        powered = _powered(values, alpha)
        residuals = powered.sum(axis=-1, keepdims=True) - 2.0 * powered
    if not np.isfinite(residuals).all():  # an inf power makes its row's residuals inf or NaN
        raise _overflow_error(alpha)
    return residuals


def _overflow_error(alpha: float) -> InputError:
    return InputError(f"alpha = {alpha!r} overflows the powered measure values: no finite residuals")


def _trial_mins(values: np.ndarray, alpha: float) -> np.ndarray:
    """Each row's minimum residual of a (T, k) stack: S - 2 max_j v_j^alpha, with S the row sum of the powers.

    Unchecked: the caller passes finite, non-negative values with k >= 2 and a
    checked alpha.  Rounding is monotone, so min_j fl(S - 2 p_j) = fl(S - 2 max_j p_j)
    and this equals `epi_residuals(values, alpha).min(axis=-1)` bit for bit; it
    is finite exactly when every residual is, and raises the same error if not.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        powered = _powered(values, alpha)
        mins = powered.sum(axis=-1) - 2.0 * functools.reduce(np.maximum, powered.T)
    if not np.isfinite(mins).all():
        raise _overflow_error(alpha)
    return mins


def epi_report(
    psi: Ket,
    partition: Partition,
    measure: MeasureKind,
    alpha: float,
    *,
    allow_unproven: bool = False,
) -> EpiReport:
    """Evaluate the polygon inequality for one state, partition and exponent."""
    values = one_to_rest_values(psi, partition, measure)
    residuals = epi_residuals(values, alpha, allow_unproven=allow_unproven)
    min_residual = float(residuals.min())
    return EpiReport(
        partition=partition,
        measure=measure,
        alpha=float(alpha),
        values=tuple(float(v) for v in values),
        residuals=tuple(float(r) for r in residuals),
        min_residual=min_residual,
        holds=min_residual >= -VIOLATION_TOL,
    )


def indicator_delta(psi: Ket, alpha: float) -> tuple[float, np.ndarray]:
    """Geometric-measure indicator: delta = min_i tau_i over the singleton cuts.

    tau_i = sum_{j != i} G^alpha(A_j | rest) - G^alpha(A_i | rest); for three
    qubits delta vanishes exactly on the biseparable states.  Needs
    alpha in (0, 1), open at both ends.
    """
    alpha = _real(alpha, "indicator alpha", 0.0, 1.0, lo_open=True, hi_open=True)
    report = epi_report(psi, Partition.singletons(psi.profile.n), MeasureKind("gem"), alpha)
    return report.min_residual, np.array(report.residuals)


def power_inequality_holds(a: float, b: float, c: float, alpha: float) -> bool:
    """a^alpha + b^alpha >= c^alpha for a, b, c in (0, 1] with a + b >= c.

    Exposed so the inequality can be exercised directly; a 1e-12 additive
    guard absorbs roundoff at the equality boundary.
    """
    sides = (("side a", a), ("side b", b), ("side c", c))
    a, b, c = (_real(v, what, 0.0, 1.0, lo_open=True) for what, v in sides)
    if a + b < c:
        raise InputError(f"need a + b >= c, got {a} + {b} < {c}")
    alpha = _check_alpha(alpha, allow_unproven=False)
    return bool(a**alpha + b**alpha + 1e-12 >= c**alpha)


def alpha_sweep(
    values,
    alpha_grid: Sequence[float],
    *,
    block: int | None = None,
    allow_unproven: bool = False,
) -> list[tuple[float, float]]:
    """Residual at one designated block across an exponent grid.

    `block` is the 0-based position in `values`; by default the largest value,
    which is the binding side of the inequality.
    """
    grid = [_check_alpha(a, allow_unproven) for a in alpha_grid]
    if not grid:
        raise InputError("alpha grid must not be empty")
    values = _array(values, "measure values")
    if values.ndim > 1:
        raise InputError(f"a sweep takes the values of one polygon, got shape {values.shape}")
    rows = [epi_residuals(values, alpha, allow_unproven=allow_unproven) for alpha in grid]
    block = int(np.argmax(values)) if block is None else _whole(block, "designated block", 0, len(values) - 1)
    return [(alpha, float(r[block])) for alpha, r in zip(grid, rows)]


@dataclass(frozen=True)
class AuditSummary:
    """Outcome of a randomized polygon audit; worst trial replayable by seed."""

    profile: DimensionProfile
    partition: Partition
    measure: MeasureKind
    sampler: str
    alpha: float
    trials: int
    seed: int
    violations: int
    worst_residual: float
    worst_trial: int

    @property
    def worst_seed(self) -> tuple[int, int]:
        return (self.seed, self.worst_trial)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial generator, independent of execution order."""
    seed, trial = _whole(seed, "seed"), _whole(trial, "trial")
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _state_profile(profile: DimensionProfile, sampler: str) -> DimensionProfile:
    """The profile of the states `sampler` draws for an audit of `profile`, checked before any draw.

    The purification's purifier is a third party, so [da, db] samples [da, db, da*db].
    """
    dims = profile.dims
    if sampler == "purification":
        if not (len(dims) == 2 or (len(dims) == 3 and dims[2] == dims[0] * dims[1])):
            raise InputError(f"purification sampler needs dims [da, db] or [da, db, da*db], got {dims}")
        return DimensionProfile((dims[0], dims[1], dims[0] * dims[1]))
    if sampler == "gw" and len(set(dims)) != 1:
        raise InputError(f"gw sampler needs equal local dimensions, got {dims}")
    return profile


def _purification(profile: DimensionProfile, rng: np.random.Generator) -> Ket:
    """Product purification of random marginal spectra on [da, db, da*db]."""
    da, db = profile.dims[:2]
    spec = gallery.ProductPurificationSpec(rng.dirichlet(np.ones(da)), rng.dirichlet(np.ones(db)))
    return gallery.product_purification(spec)


def _gw(profile: DimensionProfile, rng: np.random.Generator) -> Ket:
    """GW state with Gaussian coefficients on n parties of equal local dimension d+1."""
    n, d = profile.n, profile.dims[0] - 1
    coeffs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return gallery.gw_state(gallery.gw_spec(coeffs))


def _ket_rows(draw):
    """A SAMPLERS entry stacking the amplitudes of one gallery ket `draw(profile, rng)` per trial."""
    return lambda profile, seed, trials: np.stack([draw(profile, trial_rng(seed, t)).amplitudes for t in trials])


# name -> (profile, seed, trials: range) -> (T, D) unit amplitudes, row t drawn
# from trial_rng(seed, trials[t]) alone; `profile` is the sampled state's
# (`_state_profile`).  Haar rows go straight into one chunk buffer.
SAMPLERS = {
    "haar": lambda profile, seed, trials: _haar_rows(profile.total_dim, [trial_rng(seed, t) for t in trials]),
    "purification": _ket_rows(_purification),
    "gw": _ket_rows(_gw),
}


@functools.lru_cache(maxsize=AUDIT_CHUNK_CACHE)
def _chunk(draw, state_profile: DimensionProfile, seed: int, start: int, stop: int) -> tuple[np.ndarray, dict]:
    """The read-only rows `draw` gives trials start..stop-1, and the memo dict of their block quantities.

    The dict maps block -> (T, d_block) spectra, filled by `_block_spectra`, and
    (block, measure name) -> (MeasureKind, (T,) values), filled by `_block_values`;
    every array is read-only.  With at most 4 measure names and d_block >= 2, the
    values never take more than twice the memory of the spectra.  Keyed by the
    sampler function itself, so a replaced SAMPLERS entry never gets another
    sampler's rows.  Residuals and tallies are computed again on each audit.
    """
    amplitudes = draw(state_profile, seed, range(start, stop))
    amplitudes.flags.writeable = False
    return amplitudes, {}


def sample_state(profile: DimensionProfile, sampler: str, seed: int, trial: int) -> Ket:
    """Draw the trial state for an audit; deterministic in (seed, trial): the one-row audit draw."""
    draw = _choice(SAMPLERS, sampler, "sampler")
    state_profile = _state_profile(profile, sampler)
    seed, trial = _whole(seed, "seed"), _whole(trial, "trial")
    return Ket(state_profile, draw(state_profile, seed, range(trial, trial + 1))[0])


def audit_trial_report(
    profile: DimensionProfile,
    partition: Partition | None,
    measure: MeasureKind,
    alpha: float,
    seed: int,
    trial: int,
    *,
    sampler: str = "haar",
    allow_unproven: bool = False,
) -> EpiReport:
    """Replay a single audit trial from its derived seed."""
    psi = sample_state(profile, sampler, seed, trial)
    partition = Partition.singletons(psi.profile.n) if partition is None else partition
    return epi_report(psi, partition, measure, alpha, allow_unproven=allow_unproven)


def audit_plan(
    profile: DimensionProfile,
    partitions: Sequence[Partition | None],
    measures: Sequence[MeasureKind],
    alphas: Sequence[float],
    trials: int,
    seed: int,
    *,
    sampler: str = "haar",
    allow_unproven: bool = False,
) -> list[AuditSummary]:
    """Audit every (partition, measure, alpha) target on the same `trials` sampled states.

    Returns one summary per target, in nested product order.  Each trial is
    drawn once, and each distinct block's spectra and its values for each
    measure are computed once per chunk (`_chunk`), so every summary equals
    the single-target audit bit for bit.  A `None` partition is the
    singletons of the sampled state.  The worst trial is the first one with
    the smallest minimum residual.
    """
    trials, seed = _whole(trials, "trial count", 1), _whole(seed, "seed")
    partitions, measures, alphas = list(partitions), list(measures), list(alphas)
    if not (partitions and measures and alphas):
        raise InputError("an audit needs at least one partition, one measure and one alpha")
    alphas = [_check_alpha(alpha, allow_unproven) for alpha in alphas]
    for measure in measures:
        _check_measure(measure)
    draw = _choice(SAMPLERS, sampler, "sampler")
    state_profile = _state_profile(profile, sampler)
    partitions = [Partition.singletons(state_profile.n) if p is None else p for p in partitions]
    for partition in partitions:
        partition.validate_for(state_profile.n)
    targets = list(itertools.product(partitions, measures, alphas))
    tallies = [[0, math.inf, 0] for _ in targets]  # AuditSummary's violations, worst_residual, worst_trial
    chunk = max(1, AUDIT_CHUNK_ELEMS // state_profile.total_dim)
    for start in range(0, trials, chunk):
        amplitudes, memo = _chunk(draw, state_profile, seed, start, min(start + chunk, trials))
        _block_spectra(state_profile, amplitudes, partitions, memo)
        target_tallies = iter(tallies)  # in `targets` order
        for partition in partitions:
            for measure in measures:
                values = _block_values(memo, partition, measure)
                for alpha in alphas:
                    trial_mins = _trial_mins(values, alpha)
                    tally = next(target_tallies)
                    worst = int(trial_mins.argmin())
                    lowest = float(trial_mins[worst])
                    if lowest < -VIOLATION_TOL:  # otherwise no trial of this chunk violates
                        tally[0] += int(np.count_nonzero(trial_mins < -VIOLATION_TOL))
                    if lowest < tally[1]:  # strict: an earlier chunk keeps its ties
                        tally[1:] = lowest, start + worst
    return [
        AuditSummary(profile, partition, measure, sampler, alpha, trials, seed, *tally)
        for (partition, measure, alpha), tally in zip(targets, tallies)
    ]


def audit_random(
    profile: DimensionProfile,
    partition: Partition | None,
    measure: MeasureKind,
    alpha: float,
    trials: int,
    seed: int,
    *,
    sampler: str = "haar",
    allow_unproven: bool = False,
) -> AuditSummary:
    """Run `trials` independent polygon checks on randomly sampled states: one `audit_plan` target."""
    return audit_plan(
        profile, [partition], [measure], [alpha], trials, seed,
        sampler=sampler, allow_unproven=allow_unproven,
    )[0]
