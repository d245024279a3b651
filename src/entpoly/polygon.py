"""Polygon-inequality residuals, the delta indicator, and randomized audits.

For a partition {P_1, ..., P_k} and a measure E, the residual at block j is
r_j = sum_{l != j} E(P_l)^alpha - E(P_j)^alpha; the inequality holds when
every residual clears -VIOLATION_TOL.  One kernel measures a (T, D) stack of
kets with one stacked SVD per block: a single state is the T = 1 case, and an
audit stacks its (seed, trial) states, so any trial replays bit-exactly alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gallery
from .measures import MeasureKind, measure_value  # noqa: F401  (bound here for perfbench/tracing.py)
from .tensor import DimensionProfile, InputError, Ket, Partition, _real, _whole, haar_random_ket, reduced_spectra

# A residual below -VIOLATION_TOL counts as a violation; measure values
# compound several decompositions, so this sits well above the 1e-12
# linear-algebra tolerances.
VIOLATION_TOL = 1e-9

# Measure values at or below this are treated as exact zeros before powering
# (0^alpha := 0): fractional powers would otherwise blow 1e-16 roundoff
# residue up to order one.
MEASURE_FLOOR = 1e-12

# Audits stack trials in chunks of at most this many amplitudes (1 MiB), so
# amplitude memory stays bounded; only one 8-byte minimum per trial is kept.
AUDIT_CHUNK_ELEMS = 1 << 16


def _powered(values: np.ndarray, alpha: float) -> np.ndarray:
    out = np.zeros(values.shape)
    big = values > MEASURE_FLOOR
    out[big] = values[big] ** alpha
    return out


def _check_alpha(alpha: float, allow_unproven: bool) -> float:
    alpha = _real(alpha, "alpha")
    if not 0.0 < alpha < np.inf:
        raise InputError(f"alpha must be positive and finite, got {alpha}")
    if alpha > 1.0 and not allow_unproven:
        raise InputError(
            f"alpha = {alpha} is outside the proven range (0, 1]; "
            "evaluating it needs an explicit opt-in to the unproven regime"
        )
    return alpha


def _check_tolerance(tolerance: float) -> float:
    tolerance = _real(tolerance, "tolerance")
    if not 0.0 <= tolerance < np.inf:  # also rejects NaN, which would count no violation
        raise InputError(f"tolerance must be finite and non-negative, got {tolerance}")
    return tolerance


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


def _block_values(profile: DimensionProfile, amplitudes, partition: Partition, measure: MeasureKind):
    """(T, k) one-to-rest values of a (T, D) stack of kets: one stacked SVD per block."""
    partition.validate_for(profile.n)
    spectra = (reduced_spectra(profile, amplitudes, block) for block in partition.blocks)
    return np.stack([measure.of_spectra(lam) for lam in spectra], axis=-1)


def one_to_rest_values(psi: Ket, partition: Partition, measure: MeasureKind) -> np.ndarray:
    """Measure each block against its complement, in block order."""
    return _block_values(psi.profile, psi.amplitudes, partition, measure)[0]


def epi_residuals(values, alpha: float, *, allow_unproven: bool = False) -> np.ndarray:
    """r_j = sum_{l != j} v_l^alpha - v_j^alpha for each block j (the last axis)."""
    alpha = _check_alpha(alpha, allow_unproven)
    values = np.asarray(values, dtype=float)
    if not values.size or values.ndim < 1 or values.shape[-1] < 2:
        raise InputError(f"a polygon needs at least 2 sides: got measure values of shape {values.shape}")
    if not (np.isfinite(values).all() and (values >= 0).all()):
        raise InputError("measure values must be finite and non-negative")
    powered = _powered(values, alpha)
    return powered.sum(axis=-1, keepdims=True) - 2.0 * powered


def epi_report(
    psi: Ket,
    partition: Partition,
    measure: MeasureKind,
    alpha: float,
    *,
    tolerance: float = VIOLATION_TOL,
    allow_unproven: bool = False,
) -> EpiReport:
    """Evaluate the polygon inequality for one state, partition and exponent."""
    tolerance = _check_tolerance(tolerance)
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
        holds=min_residual >= -tolerance,
    )


def indicator_delta(psi: Ket, alpha: float) -> tuple[float, np.ndarray]:
    """Geometric-measure indicator: delta = min_i tau_i over the singleton cuts.

    tau_i = sum_{j != i} G^alpha(A_j | rest) - G^alpha(A_i | rest); for three
    qubits delta vanishes exactly on the biseparable states.  Needs
    alpha in (0, 1), open at both ends.
    """
    alpha = _real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"indicator needs alpha in (0, 1), got {alpha}")
    report = epi_report(psi, Partition.singletons(psi.profile.n), MeasureKind("gem"), alpha)
    return report.min_residual, np.array(report.residuals)


def power_inequality_holds(a: float, b: float, c: float, alpha: float) -> bool:
    """a^alpha + b^alpha >= c^alpha for a, b, c in (0, 1] with a + b >= c.

    Exposed so the inequality can be exercised directly; a 1e-12 additive
    guard absorbs roundoff at the equality boundary.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not 0.0 < v <= 1.0:
            raise InputError(f"{name} must lie in (0, 1], got {v}")
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
    grid = [_real(a, "alpha") for a in alpha_grid]
    if not grid:
        raise InputError("alpha grid must not be empty")
    values = np.asarray(values, dtype=float)
    if values.ndim > 1:
        raise InputError(f"a sweep takes the values of one polygon, got shape {values.shape}")
    rows = [epi_residuals(values, alpha, allow_unproven=allow_unproven) for alpha in grid]
    block = int(np.argmax(values)) if block is None else _whole(block, "designated block")
    if not 0 <= block < len(values):
        raise InputError(f"designated block {block} out of range")
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
    if seed < 0 or trial < 0:
        raise InputError(f"seed and trial must be non-negative, got seed {seed}, trial {trial}")
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _purification(profile: DimensionProfile, rng: np.random.Generator) -> Ket:
    """Product purification of random marginal spectra; the purifier is a third party."""
    dims = profile.dims
    if not (len(dims) == 2 or (len(dims) == 3 and dims[2] == dims[0] * dims[1])):
        raise InputError(f"purification sampler needs dims [da, db] or [da, db, da*db], got {dims}")
    da, db = dims[:2]
    spec = gallery.ProductPurificationSpec(rng.dirichlet(np.ones(da)), rng.dirichlet(np.ones(db)))
    return gallery.product_purification(spec)


def _gw(profile: DimensionProfile, rng: np.random.Generator) -> Ket:
    """GW state with Gaussian coefficients on n parties of equal local dimension d+1."""
    if len(set(profile.dims)) != 1:
        raise InputError(f"gw sampler needs equal local dimensions, got {profile.dims}")
    n, d = profile.n, profile.dims[0] - 1
    coeffs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return gallery.gw_state(gallery.gw_spec(coeffs))


# name -> (profile, rng) -> Ket.  "haar" looks haar_random_ket up at call time,
# so a wrapper bound over this module's name (perfbench/tracing.py) sees each draw.
SAMPLERS = {
    "haar": lambda profile, rng: haar_random_ket(profile, rng),
    "purification": _purification,
    "gw": _gw,
}


def sample_state(profile: DimensionProfile, sampler: str, seed: int, trial: int) -> Ket:
    """Draw the trial state for an audit; deterministic in (seed, trial)."""
    if not isinstance(sampler, str) or sampler not in SAMPLERS:  # a list would not hash
        raise InputError(f"unknown sampler {sampler!r}, expected one of {tuple(SAMPLERS)}")
    return SAMPLERS[sampler](profile, trial_rng(seed, trial))


def audit_trial_report(
    profile: DimensionProfile,
    partition: Partition | None,
    measure: MeasureKind,
    alpha: float,
    seed: int,
    trial: int,
    *,
    sampler: str = "haar",
    tolerance: float = VIOLATION_TOL,
    allow_unproven: bool = False,
) -> EpiReport:
    """Replay a single audit trial from its derived seed."""
    psi = sample_state(profile, sampler, seed, trial)
    partition = Partition.singletons(psi.profile.n) if partition is None else partition
    return epi_report(
        psi, partition, measure, alpha, tolerance=tolerance, allow_unproven=allow_unproven
    )


def audit_random(
    profile: DimensionProfile,
    partition: Partition | None,
    measure: MeasureKind,
    alpha: float,
    trials: int,
    seed: int,
    *,
    sampler: str = "haar",
    tolerance: float = VIOLATION_TOL,
    allow_unproven: bool = False,
) -> AuditSummary:
    """Run `trials` independent polygon checks on randomly sampled states.

    The worst trial is the first one with the smallest minimum residual.
    """
    trials, seed = _whole(trials, "trial count"), _whole(seed, "seed")
    if trials < 1:
        raise InputError(f"need at least 1 trial, got {trials}")
    alpha = _check_alpha(alpha, allow_unproven)
    tolerance = _check_tolerance(tolerance)
    state_profile = sample_state(profile, sampler, seed, 0).profile  # every audit has trial 0
    partition = Partition.singletons(state_profile.n) if partition is None else partition
    chunk = max(1, AUDIT_CHUNK_ELEMS // state_profile.total_dim)
    min_residuals = []
    for start in range(0, trials, chunk):
        batch = range(start, min(start + chunk, trials))
        amplitudes = np.empty((len(batch), state_profile.total_dim), dtype=complex)
        for row, trial in zip(amplitudes, batch):
            row[:] = sample_state(profile, sampler, seed, trial).amplitudes
        values = _block_values(state_profile, amplitudes, partition, measure)
        min_residuals.append(epi_residuals(values, alpha, allow_unproven=allow_unproven).min(axis=-1))
    min_residuals = np.concatenate(min_residuals)
    worst_trial = int(np.argmin(min_residuals))
    return AuditSummary(
        profile=profile,
        partition=partition,
        measure=measure,
        sampler=sampler,
        alpha=alpha,
        trials=trials,
        seed=seed,
        violations=int(np.count_nonzero(min_residuals < -tolerance)),
        worst_residual=float(min_residuals[worst_trial]),
        worst_trial=worst_trial,
    )
