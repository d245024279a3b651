"""Multi-qudit tensor bookkeeping: index maps, marginals, spectra, random states.

Subsystems are numbered 1..n throughout the public API.  Flat amplitude
vectors are row-major with subsystem 1 most significant, so the basis label
|i1 i2 ... in> sits at position sum_k i_k * prod_{l>k} d_l.  All values are
immutable after construction and safe to share across threads.  Every scalar
parameter of the package passes `_whole` or `_real`, given its range, every
array parameter passes `_array`, given its number type, and every measure,
sampler or gallery name passes `_choice`, given its table.  Every vector
scaled to unit norm passes `_unit`, and every norm, trace or probability sum
that must be 1 passes `_near_one`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Construction / verification tolerances, exposed read-only for tests.
NORM_TOL = 1e-12  # every norm, trace and probability sum that must be 1
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10  # density eigenvalues in [-PSD_TOL, 0) are roundoff, below is a bug

# Largest total dimension a profile may declare: 2^24 amplitudes, a 256 MiB
# ket.  Every state allocates at least one D-vector, so a larger profile is
# rejected here, before any allocation, not by a MemoryError deep inside numpy;
# no gallery state, test or benchmark input exceeds D = 1024.
MAX_TOTAL_DIM = 1 << 24


class InputError(ValueError):
    """A caller violated an operation's contract (bad index set, bad parameter...)."""


def _whole(value, what: str, lo: int = 0, hi: int | None = None) -> int:
    """The rule for an index, count or seed in lo..hi (unbounded above for None), as an int.

    2.9 is rejected rather than truncated to 2, and a bool rather than read as 0 or 1.
    """
    k = value if type(value) is int else None  # the common case, and never a bool
    if k is None and not isinstance(value, (bool, np.bool_)):
        try:
            k = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if k is not None and k == value:
        if lo <= k and (hi is None or k <= hi):
            return k
        value = k  # out of range: name the int, the same for 2, 2.0 and np.int64(2)
    if hi is not None:
        rule = f"a whole number in {lo}..{hi}"
    else:
        rule = "a non-negative whole number" if lo == 0 else f"a whole number >= {lo}"
    raise InputError(f"{what} must be {rule}, got {value!r}")


def _real(value, what: str, lo: float, hi: float, *, lo_open: bool = False, hi_open: bool = False) -> float:
    """The rule for a real parameter in the interval from lo to hi, each end open or closed, as a float.

    Strings, bools and complex values are rejected, not converted.  NaN lies in no
    interval, and inf only in one closed at inf: [1, inf] admits it, [0, inf) not.
    """
    if not isinstance(value, (str, bytes, bool, np.bool_, complex, np.complexfloating)):
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi):
                return x
            value = x  # out of range: name the float, the same for 2, 2.0 and np.int64(2)
    interval = f"{'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
    raise InputError(f"expected a real {what} in {interval}, got {value!r}")


def _array(values, what: str, dtype: type = float) -> np.ndarray:
    """The rule for an array parameter: a fresh, finite array of `dtype`, float or complex.

    Ragged lists, bool, string, bytes and object entries, and complex entries for
    float are rejected, not converted; a list mixing bools with ints is promoted.
    """
    try:
        raw = np.asarray(values)
    except ValueError as exc:  # a ragged list
        raise InputError(f"{what} must form a rectangular array: {exc}") from exc
    if raw.dtype.kind not in ("iuf" if dtype is float else "iufc"):
        raise InputError(f"{what} must be {'real ' if dtype is float else ''}numbers, got an array of {raw.dtype}")
    arr = np.array(raw, dtype=dtype)
    if not np.isfinite(arr).all():
        raise InputError(f"{what} must be finite")
    return arr


def _norm(amp: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis of a float or complex ket or (T, D) stack.

    Each vector's norm is the two BLAS dots numpy's `linalg.norm` runs, bit for
    bit: `vecdot` runs them on the strided `.real` and `.imag` views, and
    contiguous copies would sum in another order and change last bits.  A norm
    too large for a float is inf, without an overflow warning, for the caller's
    norm rule to reject.
    """
    re, im = amp.real, amp.imag
    with np.errstate(over="ignore"):
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _unit(values: np.ndarray, what: str) -> np.ndarray:
    """The rule for scaling to unit norm: each last-axis vector of a fresh array, divided in place by its `_norm`.

    Returns `values`.  A zero or non-finite norm is rejected, naming the first,
    before any vector is divided, so 0/0 and inf/inf never warn.
    """
    norms = _norm(values)
    ok = (0.0 < norms) & (norms < math.inf)
    if not ok.all():
        raise InputError(f"{what} must be finite and not all zero, got norm {norms[~ok].flat[0]}")
    values /= norms[..., None]
    return values


def _near_one(value, what: str) -> None:
    """The rule for a norm, trace or probability sum: within NORM_TOL of 1; NaN and inf never are."""
    if not abs(value - 1.0) <= NORM_TOL:
        raise InputError(f"{what} must be 1 to within {NORM_TOL:g}, got {value}")


def _choice(table: dict, name, what: str):
    """The rule for a name: `table[name]` for an exact string key; any other name, a list too, is unknown."""
    if isinstance(name, str) and name in table:
        return table[name]
    raise InputError(f"unknown {what} {name!r}, expected one of {tuple(table)}")


@dataclass(frozen=True)
class DimensionProfile:
    """Ordered local dimensions (d1, ..., dn) of an n-partite system."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_whole(d, "local dimension", 2) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise InputError("a system needs at least one subsystem")
        total = math.prod(dims)
        if total > MAX_TOTAL_DIM:
            raise InputError(f"total dimension {total} of {dims} exceeds MAX_TOTAL_DIM = {MAX_TOTAL_DIM}")

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def block_indices(self, block: Iterable[int], *, allow_full: bool = True) -> tuple[int, ...]:
        """Validate a 1-based index set and return it sorted (still 1-based)."""
        raw = tuple(_whole(i, "subsystem index", 1, self.n) for i in block)
        idx = tuple(sorted(set(raw)))
        if len(idx) != len(raw):
            raise InputError(f"duplicate subsystem indices in {raw}")
        if not idx:
            raise InputError("index set must not be empty")
        if not allow_full and len(idx) == self.n:
            raise InputError("index set must be a proper subset of the subsystems")
        return idx

    def complement(self, block: Iterable[int]) -> tuple[int, ...]:
        kept = set(self.block_indices(block))
        return tuple(i for i in range(1, self.n + 1) if i not in kept)


@dataclass(frozen=True, eq=False)
class Ket:
    """Normalized pure state: flat complex amplitudes over a DimensionProfile."""

    profile: DimensionProfile
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _array(self.amplitudes, "ket amplitudes", complex).reshape(-1)
        if amp.size != self.profile.total_dim:
            raise InputError(
                f"expected {self.profile.total_dim} amplitudes for dims "
                f"{self.profile.dims}, got {amp.size}"
            )
        _near_one(_norm(amp), "ket norm")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class DensityOp:
    """PSD, unit-trace operator over a DimensionProfile.

    The input must be Hermitian to HERMITIAN_TOL; the stored matrix is its
    Hermitian part (M + M^dag)/2, so it is exactly Hermitian.
    """

    profile: DimensionProfile
    matrix: np.ndarray

    def __post_init__(self):
        mat = _array(self.matrix, "density matrix entries", complex)
        D = self.profile.total_dim
        if mat.shape != (D, D):
            raise InputError(f"expected a {D}x{D} matrix for dims {self.profile.dims}")
        adjoint = mat.conj().T
        with np.errstate(over="ignore"):  # an overflowing deviation or trace is inf, for its check to reject
            herm_dev = float(np.max(np.abs(mat - adjoint)))
            trace = complex(np.trace(mat))
        if herm_dev > HERMITIAN_TOL:
            raise InputError(f"matrix is not Hermitian (max deviation {herm_dev:.3e})")
        _near_one(trace, "density trace")
        # adjoint is a fresh array (conj copies), so this does not alias; halving
        # each side first is exact for normal floats and cannot overflow
        mat *= 0.5
        adjoint *= 0.5
        mat += adjoint
        lo = float(np.min(np.linalg.eigvalsh(mat)))
        if lo < -PSD_TOL:
            raise InputError(f"matrix has eigenvalue {lo:.3e} below -{PSD_TOL}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def flat_index(multi: Sequence[int], profile: DimensionProfile) -> int:
    """Flat position of the basis label |multi[0] multi[1] ...> (subsystem 1 first)."""
    if len(multi) != profile.n:
        raise InputError(f"label has {len(multi)} entries, profile has {profile.n}")
    x = 0
    for k, d in zip(multi, profile.dims):
        x = x * d + _whole(k, "label entry", 0, d - 1)
    return x


def sparse_ket(profile: DimensionProfile, terms: Iterable[tuple[Sequence[int], complex]]) -> Ket:
    """Normalized ket from (label, amplitude) terms; unnamed labels carry zero amplitude."""
    amp = np.zeros(profile.total_dim, dtype=complex)
    for label, value in terms:
        amp[flat_index(label, profile)] = value
    return Ket(profile, _unit(amp, "sparse ket amplitudes"))


def basis_ket(profile: DimensionProfile, multi: Sequence[int]) -> Ket:
    """Computational basis state |multi>."""
    return sparse_ket(profile, [(multi, 1.0)])


def density_of(psi: Ket) -> DensityOp:
    """Rank-1 projector |psi><psi|."""
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    mat /= float(np.trace(mat).real)
    return DensityOp(psi.profile, mat)


def partial_trace(rho: DensityOp, keep: Iterable[int]) -> DensityOp:
    """Trace out everything except the (1-based) subsystems in `keep`."""
    dims, n = rho.profile.dims, rho.profile.n
    keep0 = [i - 1 for i in rho.profile.block_indices(keep)]
    sub = DimensionProfile(tuple(dims[i] for i in keep0))
    col = [n + i if i in keep0 else i for i in range(n)]
    out = keep0 + [n + i for i in keep0]
    traced = np.einsum(rho.matrix.reshape(*dims, *dims), list(range(n)) + col, out)
    return DensityOp(sub, traced.reshape(sub.total_dim, sub.total_dim))


def transpose_subsystems(mat: np.ndarray, dims: Sequence[int], block: Iterable[int]) -> np.ndarray:
    """Transpose the (1-based) subsystems in `block` of a (D, D) array over local dims, unvalidated.

    Pure axis reindexing, so applying it twice restores the input bit-exactly.
    """
    n, D = len(dims), len(mat)
    perm = list(range(2 * n))
    for i in block:
        perm[i - 1], perm[n + i - 1] = n + i - 1, i - 1
    return mat.reshape(*dims, *dims).transpose(perm).reshape(D, D)


def partial_transpose(state: Ket | DensityOp, block: Iterable[int]) -> np.ndarray:
    """Transpose the (1-based) subsystems in `block` of a density, or of |psi><psi| for a ket.

    Hermitian but maybe not PSD; `transpose_subsystems` on a validated block.
    """
    idx = state.profile.block_indices(block)
    if isinstance(state, Ket):
        mat = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        mat = state.matrix
    return transpose_subsystems(mat, state.profile.dims, idx)


def cut_matrices(profile: DimensionProfile, amplitudes: np.ndarray, block: Iterable[int]) -> np.ndarray:
    """A (T, D) stack of kets as (T, d_block, d_rest) amplitude matrices across a proper cut.

    Entry [t, a, b] is ket t's amplitude on block label a and complement label b,
    each row-major over its subsystems in increasing order.  A reshape and an
    axis transpose only, so every value keeps its bits.
    """
    idx = profile.block_indices(block, allow_full=False)
    block0 = [i - 1 for i in idx]
    rest0 = [i for i in range(profile.n) if i not in block0]
    d_block = math.prod(profile.dims[i] for i in block0)
    stack = np.reshape(amplitudes, (-1, *profile.dims))
    return stack.transpose([0] + [i + 1 for i in block0 + rest0]).reshape(len(stack), d_block, -1)


def reduced_spectra(profile: DimensionProfile, amplitudes: np.ndarray, block: Iterable[int]) -> np.ndarray:
    """Squared Schmidt coefficients of a (T, D) stack of kets across one cut, shape (T, d_block).

    One stacked SVD of the `cut_matrices`; each row is descending and
    zero-padded to the block dimension, so it equals the eigenvalue list of
    that ket's reduced density operator on the block.  Row t is bit-identical
    to the T = 1 call on ket t alone.
    """
    M = cut_matrices(profile, amplitudes, block)
    s = np.linalg.svd(M, compute_uv=False)
    lam = np.zeros(M.shape[:2])
    lam[:, : s.shape[-1]] = s**2
    return lam


def reduced_spectrum(psi: Ket, block: Iterable[int]) -> np.ndarray:
    """Squared Schmidt coefficients across the cut block | complement: the T = 1 `reduced_spectra`."""
    return reduced_spectra(psi.profile, psi.amplitudes, block)[0]


def schatten_norm(M: np.ndarray, p: float) -> float:
    """Schatten p-norm (p-norm of the singular values); p = inf is the largest one.

    Scaled by the largest singular value s_0, s_0 (sum (s/s_0)^p)^(1/p), so no power overflows.
    """
    p = _real(p, "Schatten p", 1.0, math.inf)
    M = _array(M, "Schatten norm matrix entries", complex)
    if M.ndim != 2:
        raise InputError(f"Schatten norm needs a matrix, got shape {M.shape}")
    s = np.linalg.svd(M, compute_uv=False)
    top = float(s[0]) if s.size else 0.0
    if math.isinf(p) or top == 0.0:
        return top
    return top * float(np.sum((s / top) ** p) ** (1.0 / p))


def _haar_rows(D: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """(T, D) Haar-random unit rows, row t drawn from rngs[t] alone.

    Each generator's first D normal draws are the row's real parts, the next D
    its imaginary parts, so row t equals the `haar_random_ket` of rngs[t] bit
    for bit, whatever the other rows.
    """
    normals = np.empty((len(rngs), 2, D))
    for rng, out in zip(rngs, normals):
        rng.standard_normal(out=out)  # the stream of standard_normal((2, D))
    z = np.empty((len(rngs), D), complex)
    z.real, z.imag = normals[:, 0], normals[:, 1]
    return _unit(z, "Haar draw")


def haar_random_ket(profile: DimensionProfile, seed) -> Ket:
    """Haar-random pure state; `seed` is anything numpy's default_rng accepts: the one-row `_haar_rows`."""
    return Ket(profile, _haar_rows(profile.total_dim, [np.random.default_rng(seed)])[0])


def random_density(profile: DimensionProfile, rank: int, seed) -> DensityOp:
    """Reduced state of a Haar-random purification with the requested rank."""
    D = profile.total_dim
    rank = _whole(rank, "rank", 1, D)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    mat = G @ G.conj().T
    mat /= float(np.trace(mat).real)
    return DensityOp(profile, mat)


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks of 1-based subsystem indices covering 1..n."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(_whole(i, "subsystem index", 1) for i in b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(not b for b in blocks):
            raise InputError("partition blocks must be non-empty")
        flat = [i for b in blocks for i in b]
        if len(set(flat)) != len(flat):
            raise InputError(f"partition blocks overlap: {blocks}")
        if set(flat) != set(range(1, len(flat) + 1)):
            raise InputError(f"partition must cover 1..n exactly, got {blocks}")

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(1, _whole(n, "party count", 1) + 1)))

    def __str__(self) -> str:
        """The "1|2,3|4" text that `parse` reads."""
        return "|".join(",".join(map(str, b)) for b in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse "1|2,3|4": blocks split by '|', members by ','."""
        try:
            blocks = tuple(
                tuple(int(tok) for tok in part.split(",")) for part in text.split("|")
            )
        except ValueError as exc:
            raise InputError(f"cannot parse partition {text!r}") from exc
        return cls(blocks)

    def validate_for(self, n: int) -> None:
        """Check that the partition covers exactly the n parties of a state or spec."""
        if self.n != n:
            raise InputError(f"partition covers {self.n} parties, expected {n}")


def iter_partitions(n: int, min_blocks: int = 1, max_blocks: int | None = None) -> Iterator[Partition]:
    """All set partitions of 1..n with a block count in [min_blocks, max_blocks]."""
    n, min_blocks = _whole(n, "party count", 1), _whole(min_blocks, "block count")
    max_blocks = n if max_blocks is None else _whole(max_blocks, "block count")

    def grow(i: int, blocks: list[list[int]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from grow(i + 1, blocks)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([i])
            yield from grow(i + 1, blocks)
            blocks.pop()

    # Returned, not yielded, so a bad count raises at the call rather than on first use.
    return (Partition(raw) for raw in grow(1, []) if min_blocks <= len(raw) <= max_blocks)
