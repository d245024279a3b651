"""Analytic state families with closed-form spectra and negativities.

Three families plus the named example states:

* the generalized Schmidt (Acin) form of a three-qubit pure state,
  l0|000> + l1 e^{i theta}|100> + l2|101> + l3|110> + l4|111>, whose
  one-qubit Schmidt pairs have closed forms in l0 and two discriminants;
* generalized W-class (GW) states: superpositions of single-excitation
  terms with d levels per party, closed under coarse-graining of parties;
* product purifications |psi> = sum_ij sqrt(a_i b_j)|ij>_AB |ij>_C, the
  family on which the negativity polygon inequality fails.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionProfile, InputError, Ket, Partition, _array, _choice, _near_one, _real, _unit, _whole, sparse_ket,
)

BISEP_TOL = 1e-9  # default threshold for calling a discriminant zero

#: The one-qubit lambda_max triple printed for the first worked example, in cut
#: order A, B, C.  Kept verbatim as a sweep fixture; the geometric-measure
#: values of the same state are 1 minus these.
EXAMPLE1_PAPER_VALUES = (9 / 25, 19 / 25, 14 / 25)


@dataclass(frozen=True)
class AcinParams:
    """Generalized Schmidt parameters of a three-qubit pure state."""

    l0: float
    l1: float
    l2: float
    l3: float
    l4: float
    theta: float = 0.0

    def __post_init__(self):
        for name in ("l0", "l1", "l2", "l3", "l4"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0.0, math.inf, hi_open=True))
        object.__setattr__(self, "theta", _real(self.theta, "theta", 0.0, math.pi, hi_open=True))
        _near_one(sum(l * l for l in self.ls), "Acin sum l_i^2")

    @property
    def ls(self) -> tuple[float, float, float, float, float]:
        return (self.l0, self.l1, self.l2, self.l3, self.l4)


def acin_params(ls, theta: float = 0.0) -> AcinParams:
    """Build AcinParams from an unnormalized non-negative 5-vector."""
    ls = _array(ls, "Acin coefficients")
    if ls.shape != (5,):
        raise InputError(f"Acin coefficients must be a 5-vector (l0..l4), got shape {ls.shape}")
    return AcinParams(*_unit(ls, "Acin coefficients").tolist(), theta=theta)


def acin_state(params: AcinParams) -> Ket:
    """The three-qubit ket with the phase carried by the |100> term."""
    return sparse_ket(DimensionProfile((2, 2, 2)), [
        ((0, 0, 0), params.l0),
        ((1, 0, 0), params.l1 * np.exp(1j * params.theta)),
        ((1, 0, 1), params.l2),
        ((1, 1, 0), params.l3),
        ((1, 1, 1), params.l4),
    ])


def acin_cut_determinants(params: AcinParams) -> tuple[float, float, float]:
    """Determinants of the three one-qubit marginals, in cut order A, B, C.

    The B and C determinants are the Delta0/Delta1 of the generalized Schmidt
    form.  The A marginal carries an off-diagonal l0 l1 e^{-i theta}, so its
    determinant is l0^2 (l2^2 + l3^2 + l4^2), not l0^2 (1 - l0^2); the two
    agree exactly when l0 l1 = 0.
    """
    l0, l1, l2, l3, l4 = params.ls
    cross = 2.0 * l1 * l2 * l3 * l4 * math.cos(params.theta)
    da = l0**2 * (l2**2 + l3**2 + l4**2)
    d0 = l0**2 * l3**2 + l0**2 * l4**2 + l1**2 * l4**2 + l2**2 * l3**2 - cross
    d1 = l0**2 * l2**2 + l0**2 * l4**2 + l1**2 * l4**2 + l2**2 * l3**2 - cross
    return da, d0, d1


def _pair_from_determinant(delta: float) -> np.ndarray:
    radicand = 1.0 - 4.0 * delta
    if radicand < -1e-10:
        raise ArithmeticError(f"marginal determinant {delta} exceeds the analytic bound 1/4")
    root = math.sqrt(max(0.0, radicand))
    return np.array([(1.0 + root) / 2.0, (1.0 - root) / 2.0])


def acin_schmidt_spectra(params: AcinParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form descending Schmidt pairs for the cuts A|BC, B|AC, C|AB.

    Each pair is ((1 + sqrt(1 - 4 Delta))/2, (1 - sqrt(1 - 4 Delta))/2) with
    Delta the corresponding marginal determinant.
    """
    da, d0, d1 = acin_cut_determinants(params)
    return (
        _pair_from_determinant(da),
        _pair_from_determinant(d0),
        _pair_from_determinant(d1),
    )


def acin_is_biseparable(params: AcinParams, tol: float = BISEP_TOL) -> set[str]:
    """Cuts across which the state factors: subset of {"A", "B", "C"}.

    A cut is separable exactly when its marginal determinant vanishes; for
    the A cut this covers both l0 in {0, 1} and l2 = l3 = l4 = 0.
    """
    tol = _real(tol, "tolerance", 0.0, math.inf, hi_open=True)
    da, d0, d1 = acin_cut_determinants(params)
    cuts = set()
    if da <= tol:
        cuts.add("A")
    if d0 <= tol:
        cuts.add("B")
    if d1 <= tol:
        cuts.add("C")
    return cuts


@dataclass(frozen=True, eq=False)
class GWSpec:
    """Coefficients a[j, i] of a generalized W-class state.

    Party j (of n, local dimension d+1) carries amplitude a[j, i] on the label
    with level i+1 at party j and 0 elsewhere.  The ground label |00...0>
    never appears.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(_array(self.coeffs, "GW coefficients", complex))
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise InputError("GW coefficients must form an n x d matrix")
        with np.errstate(over="ignore"):  # an overflowing sum is inf, for `_near_one` to reject
            _near_one(float(np.sum(np.abs(c) ** 2)), "GW coefficient square sum")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def d(self) -> int:
        return self.coeffs.shape[1]

    def block_weights(self, partition: Partition) -> np.ndarray:
        """Summed |a|^2 per partition block."""
        partition.validate_for(self.n)
        return np.array(
            [sum(float(np.sum(np.abs(self.coeffs[j - 1]) ** 2)) for j in b) for b in partition.blocks]
        )


def gw_spec(coeffs) -> GWSpec:
    """Build a GWSpec from an unnormalized coefficient matrix."""
    c = np.atleast_2d(_array(coeffs, "GW coefficients", complex))
    return GWSpec(_unit(c.reshape(-1), "GW coefficients").reshape(c.shape))


def _excitation(n: int, j: int, level: int) -> tuple[int, ...]:
    """The n-party label with `level` at 0-based party j and 0 elsewhere."""
    return (0,) * j + (level,) + (0,) * (n - j - 1)


def gw_state(spec: GWSpec) -> Ket:
    """The GW ket on n parties of local dimension d+1."""
    n, d = spec.n, spec.d
    terms = ((_excitation(n, j, i + 1), spec.coeffs[j, i]) for j in range(n) for i in range(d))
    return sparse_ket(DimensionProfile((d + 1,) * n), terms)


def gw_coarse_grain(spec: GWSpec, partition: Partition) -> GWSpec:
    """Merge parties into blocks; the result is again a GW state.

    Each block's coefficient vector is the concatenation of its members'
    vectors in ascending party order (the single-excitation states inside a
    block are orthonormal and relabel as new levels).  Vectors are zero-padded
    to a common length, which only adds unused levels.
    """
    partition.validate_for(spec.n)
    widest = max(len(b) for b in partition.blocks) * spec.d
    merged = np.zeros((partition.k, widest), dtype=complex)
    for row, block in enumerate(partition.blocks):
        vec = np.concatenate([spec.coeffs[j - 1] for j in block])
        merged[row, : vec.size] = vec
    return GWSpec(merged)


def gw_negativity_closed(spec: GWSpec, partition: Partition) -> np.ndarray:
    """Closed-form one-to-rest negativities of a GW state across 2 or more blocks.

    Each one-to-rest cut has Schmidt spectrum (w_j, 1 - w_j), with w_j the
    block weight, so the values are sqrt(w_j (1 - w_j)) in block order.
    """
    if partition.k < 2:  # one block is no cut; `negativity` rejects it too
        raise InputError(f"closed-form negativities need at least 2 blocks, got {partition.k}")
    w = spec.block_weights(partition)
    total = float(np.sum(w))
    return np.sqrt(np.maximum(0.0, w * (total - w)))


@dataclass(frozen=True, eq=False)
class ProductPurificationSpec:
    """Spectra (a, b) of the two marginals the purification must reproduce, each of 2 or more entries."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for field_name in ("a", "b"):
            vec = _array(getattr(self, field_name), f"spectrum {field_name}")
            if vec.ndim != 1 or vec.size < 2:
                raise InputError(f"spectrum {field_name} must be a vector of 2 or more entries, got shape {vec.shape}")
            if not ((0 <= vec) & (vec <= 1)).all():  # so the sum cannot overflow
                raise InputError(f"spectrum {field_name} entries must lie in [0, 1]")
            _near_one(vec.sum(), f"spectrum {field_name} sum")
            vec.flags.writeable = False
            object.__setattr__(self, field_name, vec)


def product_purification(spec: ProductPurificationSpec) -> Ket:
    """|psi> = sum_ij sqrt(a_i b_j) |ij>_AB |ij>_C on dims [d_a, d_b, d_a*d_b].

    The purifier C is one subsystem whose level for (i, j) is the flat
    row-major label i*d_b + j, so Tr_C gives diag(a) (x) diag(b) exactly.
    """
    da, db = spec.a.size, spec.b.size
    terms = (((i, j, i * db + j), math.sqrt(spec.a[i] * spec.b[j])) for i in range(da) for j in range(db))
    return sparse_ket(DimensionProfile((da, db, da * db)), terms)


def negativity_gap_closed(spec: ProductPurificationSpec) -> float:
    """N_{C|AB} - N_{A|BC} - N_{B|AC} of the purification, in closed form.

    Equals (1 - (sum sqrt(a_i))^2)(1 - (sum sqrt(b_j))^2) / 2, strictly
    positive whenever both spectra have rank >= 2.
    """
    sa = float(np.sum(np.sqrt(spec.a))) ** 2
    sb = float(np.sum(np.sqrt(spec.b))) ** 2
    return 0.5 * (1.0 - sa) * (1.0 - sb)


def ghz_state(n: int) -> Ket:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = _whole(n, "qubit count", 2)
    return sparse_ket(DimensionProfile((2,) * n), [((0,) * n, 1.0), ((1,) * n, 1.0)])


def w_state(n: int) -> Ket:
    """Equal superposition of the n single-excitation qubit labels."""
    n = _whole(n, "qubit count", 2)
    return sparse_ket(DimensionProfile((2,) * n), ((_excitation(n, j, 1), 1.0) for j in range(n)))


def _example1() -> Ket:
    return sparse_ket(DimensionProfile((3, 3, 3)), [
        ((1, 0, 2), 3 / 5),
        ((2, 0, 0), 2 * math.sqrt(2) / 5),
        ((0, 1, 0), 2 / 5),
        ((0, 2, 0), math.sqrt(2) / 5),
        ((0, 0, 1), math.sqrt(2) / 5),
    ])


def _example2() -> Ket:
    # Purifier first: subsystem A has dimension 9 and label 3*b + c.
    terms = (((3 * b + c, b, c), 1 / 3) for b in range(3) for c in range(3))
    return sparse_ket(DimensionProfile((9, 3, 3)), terms)


def example3_gw_spec() -> GWSpec:
    """The four-party, two-level GW coefficients behind the third example."""
    coeffs = np.zeros((4, 2), dtype=complex)
    coeffs[0, 0] = math.sqrt(0.5)  # A, level 1
    coeffs[1, 0] = 0.5  # B, level 1
    coeffs[2, 1] = 0.4  # C, level 2
    coeffs[3, 0] = 0.3  # D, level 1
    return GWSpec(coeffs)


NAMED_STATES = {
    "example1": _example1,
    "example2": _example2,
    "example3": lambda: gw_state(example3_gw_spec()),
    "bell": lambda: ghz_state(2),
}
_FAMILY_RE = re.compile(r"^(ghz|w)\((\d+)\)$")


def named_state(name: str) -> Ket:
    """Gallery lookup, trimmed and lower-cased: a `NAMED_STATES` key, ghz(n) or w(n)."""
    key = name.strip().lower() if isinstance(name, str) else name
    family = _FAMILY_RE.match(key) if isinstance(key, str) else None
    if family:
        return (ghz_state if family.group(1) == "ghz" else w_state)(int(family.group(2)))
    return _choice(NAMED_STATES, key, "gallery state")()
