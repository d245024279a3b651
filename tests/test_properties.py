"""Property tests: symmetries that spectra and residuals must respect on any state.

Examples are derandomized and capped, so every run checks the same states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import entpoly as ep
from entpoly import polygon
from helpers import apply_local_unitaries, dense_negativity, haar_unitary, random_unit_vector

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
KINDS = [ep.GEM, ep.NEGATIVITY, ep.CONCURRENCE, ep.q_concurrence_kind(1.5)]


@st.composite
def kets(draw):
    """A random pure state on 2-4 parties of local dimension 2 or 3."""
    prof = ep.DimensionProfile(draw(st.lists(st.integers(2, 3), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ep.Ket(prof, random_unit_vector(prof.total_dim, rng))


@st.composite
def sparse_kets(draw):
    """A random pure state on 2-4 parties of local dimension 2 or 3, on a random non-empty support."""
    prof = ep.DimensionProfile(draw(st.lists(st.integers(2, 3), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = random_unit_vector(prof.total_dim, rng)
    amp[rng.random(prof.total_dim) < draw(st.floats(0.0, 0.95))] = 0.0
    amp[rng.integers(prof.total_dim)] = 1.0  # keep the support non-empty
    return ep.Ket(prof, amp / np.linalg.norm(amp))


@st.composite
def proper_blocks(draw, n):
    """A non-empty proper subset of 1..n."""
    return tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True)))


@st.composite
def partitions(draw, n):
    """A partition of 1..n into at least two blocks, in a random block order."""
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n).filter(lambda ls: len(set(ls)) >= 2))
    blocks = [tuple(i + 1 for i in range(n) if labels[i] == lab) for lab in dict.fromkeys(labels)]
    return ep.Partition(tuple(draw(st.permutations(blocks))))


@PROPERTY
@given(st.data())
def test_residuals_permute_with_block_order(data):
    psi = data.draw(kets())
    part = data.draw(partitions(psi.profile.n))
    order = data.draw(st.permutations(range(part.k)))
    kind = data.draw(st.sampled_from(KINDS))
    alpha = data.draw(st.floats(0.05, 1.0))
    permuted = ep.Partition(tuple(part.blocks[j] for j in order))
    residuals = ep.epi_residuals(ep.one_to_rest_values(psi, part, kind), alpha)
    permuted_residuals = ep.epi_residuals(ep.one_to_rest_values(psi, permuted, kind), alpha)
    assert_allclose(permuted_residuals, residuals[list(order)], rtol=0, atol=1e-12)


@PROPERTY
@given(st.data())
def test_block_and_complement_share_the_nonzero_spectrum(data):
    psi = data.draw(kets())
    block = data.draw(proper_blocks(psi.profile.n))
    lam = ep.reduced_spectrum(psi, block)
    mu = ep.reduced_spectrum(psi, psi.profile.complement(block))
    m = min(lam.size, mu.size)  # beyond the Schmidt rank bound both are zero padding
    assert_allclose(lam[:m], mu[:m], rtol=0, atol=1e-12)
    assert_allclose(np.concatenate([lam[m:], mu[m:]]), 0.0, rtol=0, atol=1e-12)


@PROPERTY
@given(st.data())
def test_reduced_spectrum_invariant_under_local_unitaries(data):
    psi = data.draw(kets())
    block = data.draw(proper_blocks(psi.profile.n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dims = psi.profile.dims
    unitaries = [haar_unitary(d, rng) for d in dims]
    rotated = ep.Ket(psi.profile, apply_local_unitaries(psi.amplitudes, dims, unitaries))
    assert_allclose(ep.reduced_spectrum(rotated, block), ep.reduced_spectrum(psi, block), rtol=0, atol=1e-12)


@PROPERTY
@given(st.data())
def test_gw_coarse_graining_keeps_block_spectra(data):
    # n <= 5 and d <= 3 keep the coarse-grained ket at most 7^4 = 2401 amplitudes (4 blocks, one of 2 parties)
    n, d = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    silent = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda s: not all(s)))
    coeffs[silent] = 0.0  # parties with zero weight
    spec = ep.gw_spec(coeffs)
    part = data.draw(partitions(n))
    psi = ep.gw_state(spec)
    merged = ep.gw_state(ep.gw_coarse_grain(spec, part))
    for j, block in enumerate(part.blocks):
        lam = ep.reduced_spectrum(psi, block)
        mu = ep.reduced_spectrum(merged, (j + 1,))
        m = min(lam.size, mu.size)  # both are descending; past the shorter one only zeros remain
        assert_allclose(lam[:m], mu[:m], rtol=0, atol=1e-12)
        assert_allclose(np.concatenate([lam[m:], mu[m:]]), 0.0, rtol=0, atol=1e-12)


@PROPERTY
@given(st.data())
def test_sparse_ket_negativity_matches_the_dense_trace_norm(data):
    psi = data.draw(sparse_kets())
    block = data.draw(proper_blocks(psi.profile.n))
    dense = dense_negativity(psi.amplitudes, psi.profile.dims, [i - 1 for i in block])
    assert abs(ep.negativity(psi, block) - dense) <= 1e-14


@st.composite
def value_stacks(draw):
    """A (T, k) stack of measure values with zeros, values at or below MEASURE_FLOOR, and ties."""
    T, k = draw(st.integers(1, 50)), draw(st.integers(2, 12))
    entry = st.one_of(
        st.just(0.0), st.just(ep.MEASURE_FLOOR), st.floats(0.0, ep.MEASURE_FLOOR), st.floats(0.0, 4.0),
    )
    pool = np.array(draw(st.lists(entry, min_size=1, max_size=6)))  # a short pool makes ties common
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))  # a seed, not T * k draws, keeps shrinking fast
    return pool[rng.integers(len(pool), size=(T, k))]


@PROPERTY
@given(value_stacks(), st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]), st.floats(0.0, 4.0, exclude_min=True)))
def test_trial_mins_are_the_residual_minima_bit_for_bit(values, alpha):
    # min_j fl(S - 2 p_j) = fl(S - 2 max_j p_j), with S the same numpy row sum
    expected = ep.epi_residuals(values, alpha, allow_unproven=True).min(axis=-1)
    assert polygon._trial_mins(values, alpha).tobytes() == expected.tobytes()


def test_trial_mins_overflow_is_the_residual_overflow():
    values = np.full((3, 4), 4.0)
    with pytest.raises(ep.InputError, match="overflows") as residuals:
        ep.epi_residuals(values, 1e308, allow_unproven=True)
    with pytest.raises(ep.InputError, match="overflows") as mins:
        polygon._trial_mins(values, 1e308)
    assert str(mins.value) == str(residuals.value)
