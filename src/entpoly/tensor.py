"""Multi-qudit tensor bookkeeping: index maps, marginals, spectra, random states.

Subsystems are numbered 1..n throughout the public API.  Flat amplitude
vectors are row-major with subsystem 1 most significant, so the basis label
|i1 i2 ... in> sits at position sum_k i_k * prod_{l>k} d_l.  All values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Construction / verification tolerances, exposed read-only for tests.
NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10  # density eigenvalues in [-PSD_TOL, 0) are roundoff, below is a bug
SPECTRUM_SUM_TOL = 1e-10

# Largest total dimension a profile may declare: 2^24 amplitudes, a 256 MiB
# ket.  Every state allocates at least one D-vector, so a larger profile is
# rejected here, before any allocation, not by a MemoryError deep inside numpy;
# no gallery state, test or benchmark input exceeds D = 1024.
MAX_TOTAL_DIM = 1 << 24


class InputError(ValueError):
    """A caller violated an operation's contract (bad index set, bad parameter...)."""


def _whole(value, what: str) -> int:
    """An index, count or seed as an int; 2.9 is rejected rather than truncated to 2."""
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != value:
        raise InputError(f"{what} must be a whole number, got {value!r}")
    return k


def _real(value, what: str) -> float:
    """A real parameter as a float; strings, bools and complex values are rejected, not converted."""
    if not isinstance(value, (str, bytes, bool, np.bool_, complex, np.complexfloating)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"expected a real {what}, got {value!r}")


@dataclass(frozen=True)
class DimensionProfile:
    """Ordered local dimensions (d1, ..., dn) of an n-partite system."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_whole(d, "local dimension") for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise InputError("a system needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise InputError(f"local dimensions must be >= 2, got {dims}")
        total = math.prod(dims)
        if total > MAX_TOTAL_DIM:
            raise InputError(f"total dimension {total} of {dims} exceeds MAX_TOTAL_DIM = {MAX_TOTAL_DIM}")

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def block_dim(self, block: Iterable[int]) -> int:
        """Product of local dimensions over a 1-based subsystem index set."""
        return math.prod(self.dims[i - 1] for i in self.block_indices(block))

    def block_indices(self, block: Iterable[int], *, allow_full: bool = True) -> tuple[int, ...]:
        """Validate a 1-based index set and return it sorted (still 1-based)."""
        raw = tuple(_whole(i, "subsystem index") for i in block)
        idx = tuple(sorted(set(raw)))
        if len(idx) != len(raw):
            raise InputError(f"duplicate subsystem indices in {raw}")
        if not idx:
            raise InputError("index set must not be empty")
        if idx[0] < 1 or idx[-1] > self.n:
            raise InputError(f"subsystem indices must lie in 1..{self.n}, got {raw}")
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
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != self.profile.total_dim:
            raise InputError(
                f"expected {self.profile.total_dim} amplitudes for dims "
                f"{self.profile.dims}, got {amp.size}"
            )
        if not np.isfinite(amp).all():
            raise InputError("ket amplitudes must be finite")
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > NORM_TOL:
            raise InputError(f"ket must be normalized, |norm - 1| = {abs(nrm - 1.0):.3e}")
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
        mat = np.array(self.matrix, dtype=complex)
        D = self.profile.total_dim
        if mat.shape != (D, D):
            raise InputError(f"expected a {D}x{D} matrix for dims {self.profile.dims}")
        if not np.isfinite(mat).all():
            raise InputError("density matrix entries must be finite")
        adjoint = mat.conj().T
        herm_dev = float(np.max(np.abs(mat - adjoint)))
        if herm_dev > HERMITIAN_TOL:
            raise InputError(f"matrix is not Hermitian (max deviation {herm_dev:.3e})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise InputError(f"trace must be 1, got {tr}")
        mat += adjoint  # adjoint is a fresh array (conj copies), so this does not alias
        mat /= 2
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
        k = _whole(k, "label entry")
        if not 0 <= k < d:
            raise InputError(f"label entry {k} out of range for local dimension {d}")
        x = x * d + k
    return x


def multi_index(flat: int, profile: DimensionProfile) -> tuple[int, ...]:
    """Inverse of flat_index."""
    flat = _whole(flat, "flat index")
    if not 0 <= flat < profile.total_dim:
        raise InputError(f"flat index {flat} out of range for dims {profile.dims}")
    out = []
    for d in reversed(profile.dims):
        out.append(flat % d)
        flat //= d
    return tuple(reversed(out))


def sparse_ket(profile: DimensionProfile, terms: Iterable[tuple[Sequence[int], complex]]) -> Ket:
    """Normalized ket from (label, amplitude) terms; unnamed labels carry zero amplitude."""
    amp = np.zeros(profile.total_dim, dtype=complex)
    for label, value in terms:
        amp[flat_index(label, profile)] = value
    nrm = float(np.linalg.norm(amp))
    if not 0.0 < nrm < np.inf:  # checked before dividing: 0/0 and inf/inf would warn
        raise InputError(f"sparse ket amplitudes must be finite and not all zero, got norm {nrm}")
    return Ket(profile, amp / nrm)


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


def partial_transpose(state: Ket | DensityOp, block: Iterable[int]) -> np.ndarray:
    """Transpose the (1-based) subsystems in `block` of a density, or of |psi><psi| for a ket.

    Hermitian but maybe not PSD.  Pure axis reindexing, so applying it twice
    restores the input bit-exactly.
    """
    profile = state.profile
    dims, n, D = profile.dims, profile.n, profile.total_dim
    perm = list(range(2 * n))
    for i in profile.block_indices(block):
        perm[i - 1], perm[n + i - 1] = perm[n + i - 1], perm[i - 1]
    if isinstance(state, Ket):
        mat = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        mat = state.matrix
    return mat.reshape(*dims, *dims).transpose(perm).reshape(D, D)


def reduced_spectra(profile: DimensionProfile, amplitudes: np.ndarray, block: Iterable[int]) -> np.ndarray:
    """Squared Schmidt coefficients of a (T, D) stack of kets across one cut, shape (T, d_block).

    One stacked SVD of the (T, d_block, d_rest) amplitude tensor; each row is
    descending and zero-padded to the block dimension, so it equals the
    eigenvalue list of that ket's reduced density operator on the block.
    Row t is bit-identical to the T = 1 call on ket t alone.
    """
    idx = profile.block_indices(block, allow_full=False)
    block0 = [i - 1 for i in idx]
    rest0 = [i for i in range(profile.n) if i not in block0]
    d_block = math.prod(profile.dims[i] for i in block0)
    stack = np.reshape(amplitudes, (-1, *profile.dims))
    M = stack.transpose([0] + [i + 1 for i in block0 + rest0]).reshape(len(stack), d_block, -1)
    s = np.linalg.svd(M, compute_uv=False)
    lam = np.zeros((len(stack), d_block))
    lam[:, : s.shape[-1]] = s**2
    return lam


def reduced_spectrum(psi: Ket, block: Iterable[int]) -> np.ndarray:
    """Squared Schmidt coefficients across the cut block | complement: the T = 1 `reduced_spectra`."""
    return reduced_spectra(psi.profile, psi.amplitudes, block)[0]


def schatten_norm(M: np.ndarray, p: float) -> float:
    """Schatten p-norm (p-norm of the singular values); p = inf is the largest one."""
    p = _real(p, "Schatten p")
    if not p >= 1.0:  # also rejects NaN
        raise InputError(f"Schatten norm needs p >= 1, got {p}")
    M = np.asarray(M, dtype=complex)
    if not np.isfinite(M).all():
        raise InputError("Schatten norm needs a finite matrix")
    s = np.linalg.svd(M, compute_uv=False)
    if math.isinf(p):
        return float(s[0]) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


def haar_random_ket(profile: DimensionProfile, seed) -> Ket:
    """Haar-random pure state; `seed` is anything numpy's default_rng accepts."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(profile.total_dim) + 1j * rng.standard_normal(profile.total_dim)
    return Ket(profile, z / np.linalg.norm(z))


def random_density(profile: DimensionProfile, rank: int, seed) -> DensityOp:
    """Reduced state of a Haar-random purification with the requested rank."""
    D = profile.total_dim
    rank = _whole(rank, "rank")
    if not 1 <= rank <= D:
        raise InputError(f"rank must lie in 1..{D}, got {rank}")
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
        blocks = tuple(tuple(sorted(_whole(i, "subsystem index") for i in b)) for b in self.blocks)
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
        return cls(tuple((i,) for i in range(1, _whole(n, "party count") + 1)))

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
    n, min_blocks = _whole(n, "party count"), _whole(min_blocks, "block count")
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
