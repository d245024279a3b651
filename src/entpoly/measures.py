"""Bipartite entanglement measures for pure states, plus two-qubit Wootters.

Every measure here is evaluated across a cut: a 1-based block of subsystems
against its complement.  `SPECTRUM_MEASURES` maps each pure-state measure to a
function of the cut's Schmidt spectrum (or a (T, d) stack of spectra), and
`measure_value(psi, block, kind)` evaluates any of them on one cut; the
trace-norm negativity never uses one and also accepts density operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import DensityOp, InputError, Ket, _real, partial_transpose, reduced_spectrum

# Eigenvalues of the Wootters spin-flip product are real and non-negative up
# to roundoff; anything beyond these tolerances signals a logic error.
WOOTTERS_IMAG_TOL = 1e-8
WOOTTERS_NEG_TOL = 1e-8

# Square roots amplify spectral roundoff (1e-16 -> 1e-8), so quantities that
# feed a sqrt are snapped to 0 below these floors: purity deficits 1 - Tr rho^q
# of product states, and the numerically-zero spin-flip eigenvalues.
PURITY_DEFICIT_FLOOR = 1e-12
WOOTTERS_ZERO_FLOOR = 1e-13


def _purity_deficit(lam: np.ndarray, q: float) -> np.ndarray:
    deficit = 1.0 - np.sum(lam**q, axis=-1)
    return np.where(deficit > PURITY_DEFICIT_FLOOR, deficit, 0.0)


def _schmidt_negativity(lam: np.ndarray) -> np.ndarray:
    # float_power squares with libm pow like float ** 2; x * x rounds otherwise
    # for ~1 input in 1500, and recorded 17-digit outputs depend on pow's rounding.
    return np.maximum(0.0, (np.float_power(np.sum(np.sqrt(lam), axis=-1), 2) - 1.0) / 2.0)


# name -> value from spectra along the last axis; `q` goes to qconcurrence only.
SPECTRUM_MEASURES = {
    "gem": lambda lam: np.maximum(0.0, 1.0 - lam[..., 0]),  # 1 - lambda_max
    "negativity": _schmidt_negativity,  # ((sum_i sqrt(lambda_i))^2 - 1) / 2
    "concurrence": lambda lam: np.sqrt(2.0 * _purity_deficit(lam, 2)),  # sqrt(2 (1 - Tr rho^2))
    "qconcurrence": _purity_deficit,  # 1 - Tr rho^q
}


@dataclass(frozen=True)
class MeasureKind:
    """Selects one of the supported measures; `q` applies to qconcurrence only (default 2)."""

    name: str
    q: float | None = None

    def __post_init__(self):
        if self.name not in SPECTRUM_MEASURES:
            raise InputError(f"unknown measure {self.name!r}, expected one of {tuple(SPECTRUM_MEASURES)}")
        if self.name == "qconcurrence":
            q = 2.0 if self.q is None else _real(self.q, "q")
            if not q >= 1.0:  # also rejects NaN
                raise InputError(f"qconcurrence needs q >= 1, got {q}")
            object.__setattr__(self, "q", q)
        elif self.q is not None:
            raise InputError(f"measure {self.name!r} takes no q parameter")

    @property
    def label(self) -> str:
        if self.name == "qconcurrence":
            return f"qconcurrence(q={self.q:g})"
        return self.name

    def of_spectra(self, lam: np.ndarray) -> np.ndarray:
        """Values from descending spectra along the last axis; one value per spectrum."""
        if self.q is None:
            return SPECTRUM_MEASURES[self.name](lam)
        return SPECTRUM_MEASURES[self.name](lam, self.q)


GEM = MeasureKind("gem")
NEGATIVITY = MeasureKind("negativity")
CONCURRENCE = MeasureKind("concurrence")


def q_concurrence_kind(q: float) -> MeasureKind:
    return MeasureKind("qconcurrence", _real(q, "q"))  # MeasureKind would read None as q = 2


def measure_value(psi: Ket, block, kind: MeasureKind) -> float:
    """Evaluate a MeasureKind on a pure state across the given cut (Schmidt path)."""
    return float(kind.of_spectra(reduced_spectrum(psi, block)))


def negativity(state: Ket | DensityOp, block) -> float:
    """(trace norm of the partial transpose - 1) / 2 across a proper cut, for kets or densities."""
    pt = partial_transpose(state, state.profile.block_indices(block, allow_full=False))
    # eigvalsh reads only the lower triangle and the real part of the diagonal, so
    # pt needs no symmetrized copy: a ket's outer product is Hermitian to roundoff.
    tn = float(np.sum(np.abs(np.linalg.eigvalsh(pt))))
    return max(0.0, (tn - 1.0) / 2.0)


def negativity_pure_schmidt(psi: Ket, block) -> float:
    """((sum_i sqrt(lambda_i))^2 - 1) / 2 from the Schmidt spectrum of the cut.

    The Schmidt-path reference that the trace-norm `negativity` is checked against.
    """
    return measure_value(psi, block, NEGATIVITY)


_SYSY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)  # sigma_y (x) sigma_y in the computational basis


def wootters_concurrence(rho: DensityOp) -> float:
    """Analytic two-qubit mixed-state concurrence max{sqrt(mu1) - sum sqrt(mu_i), 0}.

    The eigenvalues mu_i of rho (sy x sy) rho* (sy x sy) are real non-negative
    in exact arithmetic; complex conjugation is taken in the computational
    basis the state is stored in.
    """
    if rho.profile.dims != (2, 2):
        raise InputError(f"Wootters formula needs a two-qubit state, got dims {rho.profile.dims}")
    R = rho.matrix @ _SYSY @ rho.matrix.conj() @ _SYSY
    mu = np.linalg.eigvals(R)
    worst_imag = float(np.max(np.abs(mu.imag)))
    if worst_imag > WOOTTERS_IMAG_TOL:
        raise ArithmeticError(f"spin-flip eigenvalues drifted complex ({worst_imag:.3e})")
    vals = np.sort(mu.real)[::-1]
    if vals[-1] < -WOOTTERS_NEG_TOL:
        raise ArithmeticError(f"spin-flip eigenvalue {vals[-1]:.3e} too negative")
    vals[vals < WOOTTERS_ZERO_FLOOR] = 0.0
    roots = np.sqrt(vals)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))

