"""Independent oracles and small utilities shared by the test modules.

Everything here is deliberately written against raw numpy arrays with
explicit index loops, so it shares no code path with the package.
"""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """Load perfbench/<name>.py by file path, as a fresh module that is only read."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flat(label, dims):
    """Row-major mixed-radix position, subsystem 1 most significant."""
    x = 0
    for k, d in zip(label, dims):
        x = x * d + k
    return x


def brute_reduced_density(mat, dims, keep0):
    """Partial trace of a raw density matrix by explicit summation.

    `keep0` lists the 0-based subsystems to keep, ascending.
    """
    n = len(dims)
    rest = [i for i in range(n) if i not in keep0]
    kept_dims = [dims[i] for i in keep0]
    dk = math.prod(kept_dims)
    out = np.zeros((dk, dk), dtype=complex)
    kept_labels = list(itertools.product(*[range(d) for d in kept_dims]))
    rest_labels = list(itertools.product(*[range(dims[i]) for i in rest]))
    for a, la in enumerate(kept_labels):
        for b, lb in enumerate(kept_labels):
            acc = 0.0
            for lr in rest_labels:
                mi = [0] * n
                mj = [0] * n
                for pos, i in enumerate(keep0):
                    mi[i] = la[pos]
                    mj[i] = lb[pos]
                for pos, i in enumerate(rest):
                    mi[i] = lr[pos]
                    mj[i] = lr[pos]
                acc += mat[flat(mi, dims), flat(mj, dims)]
            out[a, b] = acc
    return out


def brute_reduced_spectrum(psi_vec, dims, keep0):
    """Descending eigenvalues of the kept marginal of a pure state."""
    rho = np.outer(psi_vec, psi_vec.conj())
    red = brute_reduced_density(rho, dims, keep0)
    return np.sort(np.linalg.eigvalsh(red))[::-1]


def dense_negativity(psi_vec, dims, block0):
    """Trace-norm negativity of a pure state from eigvalsh of its dense D x D partial transpose.

    `block0` holds the 0-based subsystems that are transposed.
    """
    n, D = len(dims), len(psi_vec)
    perm = list(range(2 * n))
    for i in block0:
        perm[i], perm[n + i] = perm[n + i], perm[i]
    pt = np.outer(psi_vec, psi_vec.conj()).reshape(*dims, *dims).transpose(perm).reshape(D, D)
    tn = float(np.sum(np.abs(np.linalg.eigvalsh(pt))))
    return max(0.0, (tn - 1.0) / 2.0)


def haar_unitary(d, rng):
    """Haar-distributed unitary via the QR trick."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_unit_vector(dim, rng):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def apply_local_unitaries(psi_vec, dims, unitaries):
    """Apply one unitary per subsystem to a flat state vector."""
    full = np.array([[1.0]], dtype=complex)
    for u in unitaries:
        full = np.kron(full, u)
    return full @ psi_vec
