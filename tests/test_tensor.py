"""Index bookkeeping, marginals, spectra, norms, random states."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import entpoly as ep
from entpoly.tensor import MAX_TOTAL_DIM, reduced_spectra, sparse_ket
from helpers import brute_reduced_density, brute_reduced_spectrum, random_unit_vector

P222 = ep.DimensionProfile((2, 2, 2))
P333 = ep.DimensionProfile((3, 3, 3))


def haar(dims, seed):
    return ep.haar_random_ket(ep.DimensionProfile(dims), seed)


class TestProfile:
    def test_basics(self):
        prof = ep.DimensionProfile((2, 3, 4))
        assert prof.n == 3
        assert prof.total_dim == 24
        assert prof.block_dim((1, 3)) == 8
        assert prof.complement((2,)) == (1, 3)

    # (2.9, 2) and (2, 2.5) were truncated to whole dimensions instead of rejected
    @pytest.mark.parametrize("dims", [(), (1,), (2, 1), (2.9, 2), (2, 2.5), (2, "3")])
    def test_bad_dims(self, dims):
        with pytest.raises(ep.InputError):
            ep.DimensionProfile(dims)

    # each of these truncated the fractional entry: (1,), label (1, 0) and flat index 2
    @pytest.mark.parametrize("call", [
        lambda prof: prof.block_indices((1.7,)),
        lambda prof: ep.flat_index((1.5, 0), prof),
        lambda prof: ep.multi_index(2.7, prof),
    ], ids=["block_indices", "flat_index", "multi_index"])
    def test_fractional_index_rejected(self, call):
        with pytest.raises(ep.InputError, match="whole number"):
            call(ep.DimensionProfile((2, 2)))

    def test_whole_valued_numbers_accepted(self):
        prof = ep.DimensionProfile((2.0, np.int64(2)))
        assert prof.dims == (2, 2)
        assert prof.block_indices((2.0, np.int64(1))) == (1, 2)
        assert ep.flat_index((1.0, np.int64(1)), prof) == 3
        assert ep.multi_index(3.0, prof) == ep.multi_index(np.int64(3), prof) == (1, 1)
        assert ep.Partition(((2.0,), (np.int64(1),))).blocks == ((2,), (1,))
        rho = ep.random_density(prof, 2.0, seed=0)
        assert np.array_equal(rho.matrix, ep.random_density(prof, 2, seed=0).matrix)

    def test_oversized_profile_rejected_before_allocation(self):
        # 40 qubits would need a 16 TiB ket; the profile itself allocates nothing
        with pytest.raises(ep.InputError, match="MAX_TOTAL_DIM"):
            ep.DimensionProfile((2,) * 40)
        assert ep.DimensionProfile((2,) * 24).total_dim == MAX_TOTAL_DIM
        with pytest.raises(ep.InputError):
            ep.DimensionProfile((2,) * 25)


class TestFlatIndex:
    def test_all_zero_label(self):
        assert ep.flat_index((0, 0, 0), P222) == 0

    def test_qutrit_label(self):
        assert ep.flat_index((1, 0, 2), P333) == 11

    def test_last_label(self):
        assert ep.flat_index((1, 1), ep.DimensionProfile((2, 2))) == 3

    def test_bijection_matches_row_major_enumeration(self):
        # itertools.product enumerates labels in exactly row-major order
        for pos, label in enumerate(itertools.product(range(3), range(3), range(3))):
            assert ep.flat_index(label, P333) == pos
            assert ep.multi_index(pos, P333) == label

    def test_out_of_range(self):
        with pytest.raises(ep.InputError):
            ep.flat_index((0, 2, 0), P222)
        with pytest.raises(ep.InputError):
            ep.multi_index(27, P333)


class TestKetAndDensity:
    def test_ket_requires_normalization(self):
        with pytest.raises(ep.InputError):
            ep.Ket(P222, np.ones(8))

    def test_ket_is_immutable(self):
        psi = ep.basis_ket(P222, (0, 0, 0))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    @pytest.mark.parametrize(
        "terms", [[], [((0, 0, 0), 0.0), ((1, 1, 1), 0j)], [((0, 0, 0), np.inf)], [((0, 0, 0), np.nan)]]
    )
    def test_sparse_ket_rejects_zero_or_non_finite_terms(self, terms):
        # checked before dividing by the norm, so no 0/0 or inf/inf warning either
        with pytest.raises(ep.InputError, match="not all zero"):
            sparse_ket(P222, terms)

    def test_density_of_basis_state(self):
        rho = ep.density_of(ep.basis_ket(ep.DimensionProfile((2,)), (0,)))
        assert_allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_density_of_bell(self):
        rho = ep.density_of(ep.named_state("bell")).matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert_allclose(rho, expected, atol=1e-15)

    def test_density_of_example2_is_rank_one(self):
        rho = ep.density_of(ep.named_state("example2"))
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        assert abs(evals[0] - 1.0) < 1e-12
        assert np.all(np.abs(evals[1:]) < 1e-12)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12

    def test_density_rejects_non_psd(self):
        mat = np.diag([1.5, -0.5])
        with pytest.raises(ep.InputError):
            ep.DensityOp(ep.DimensionProfile((2,)), mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ket_rejects_non_finite(self, bad):
        # |nan - 1| > tol is False, so a norm check alone lets NaN through
        with pytest.raises(ep.InputError, match="finite"):
            ep.Ket(ep.DimensionProfile((2,)), [bad, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_rejects_non_finite(self, bad):
        with pytest.raises(ep.InputError, match="finite"):
            ep.DensityOp(ep.DimensionProfile((2,)), np.diag([bad, 0.5]))

    def test_density_of_is_exactly_hermitian(self):
        # the outer product of a Haar ket is Hermitian only to roundoff
        for seed in range(8):
            mat = ep.density_of(haar((2, 3, 2), seed)).matrix
            assert np.array_equal(mat, mat.conj().T)

    def test_density_stores_hermitian_part(self):
        mat = np.array([[0.5, 0.25 + 1e-13], [0.25, 0.5]], dtype=complex)
        rho = ep.DensityOp(ep.DimensionProfile((2,)), mat)
        assert np.array_equal(rho.matrix, (mat + mat.conj().T) / 2)
        assert not np.array_equal(rho.matrix, mat)

    def test_density_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.25 + 10 * ep.HERMITIAN_TOL], [0.25, 0.5]], dtype=complex)
        with pytest.raises(ep.InputError, match="not Hermitian"):
            ep.DensityOp(ep.DimensionProfile((2,)), mat)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = ep.density_of(ep.named_state("bell"))
        red = ep.partial_trace(rho, (1,))
        assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-14)

    def test_example2_bc_marginal_is_product_identity(self):
        rho = ep.density_of(ep.named_state("example2"))
        red = ep.partial_trace(rho, (2, 3))
        assert_allclose(red.matrix, np.kron(np.eye(3), np.eye(3)) / 9, atol=1e-14)

    def test_product_marginal(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        amp = np.kron(np.array([1.0, 0.0]), plus)
        psi = ep.Ket(ep.DimensionProfile((2, 2)), amp)
        red = ep.partial_trace(ep.density_of(psi), (2,))
        assert_allclose(red.matrix, np.outer(plus, plus), atol=1e-14)

    def test_composition_any_order(self):
        rho = ep.random_density(ep.DimensionProfile((2, 3, 2)), 5, seed=11)
        joint = ep.partial_trace(rho, (2,))
        # trace out 3 then 1 (indices renumber after the first trace)
        step = ep.partial_trace(rho, (1, 2))
        two_step = ep.partial_trace(step, (2,))
        assert_allclose(joint.matrix, two_step.matrix, atol=1e-12)
        step_b = ep.partial_trace(rho, (2, 3))
        two_step_b = ep.partial_trace(step_b, (1,))
        assert_allclose(joint.matrix, two_step_b.matrix, atol=1e-12)

    def test_matches_brute_force(self):
        dims = (2, 3, 2)
        rho = ep.random_density(ep.DimensionProfile(dims), 4, seed=3)
        for keep in [(1,), (2,), (3,), (1, 3), (2, 3)]:
            red = ep.partial_trace(rho, keep)
            oracle = brute_reduced_density(rho.matrix, dims, [i - 1 for i in keep])
            assert_allclose(red.matrix, oracle, atol=1e-12)

    def test_empty_keep_rejected(self):
        rho = ep.density_of(ep.named_state("bell"))
        with pytest.raises(ep.InputError):
            ep.partial_trace(rho, ())
        with pytest.raises(ep.InputError):
            ep.partial_trace(rho, (3,))


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rho_a = ep.random_density(ep.DimensionProfile((2,)), 2, seed=1).matrix
        rho_b = ep.random_density(ep.DimensionProfile((3,)), 3, seed=2).matrix
        rho = ep.DensityOp(ep.DimensionProfile((2, 3)), np.kron(rho_a, rho_b))
        pt = ep.partial_transpose(rho, (1,))
        assert_allclose(pt, np.kron(rho_a.T, rho_b), atol=1e-14)
        assert np.min(np.linalg.eigvalsh(pt)) > -1e-12

    def test_bell_min_eigenvalue(self):
        rho = ep.density_of(ep.named_state("bell"))
        pt = ep.partial_transpose(rho, (1,))
        evals = np.sort(np.linalg.eigvalsh(pt))
        assert abs(evals[0] + 0.5) < 1e-12
        assert_allclose(evals[1:], [0.5, 0.5, 0.5], atol=1e-12)

    def test_identity_fixed_point(self):
        prof = ep.DimensionProfile((2, 3))
        rho = ep.DensityOp(prof, np.eye(6) / 6)
        for block in [(1,), (2,), (1, 2)]:
            assert_allclose(ep.partial_transpose(rho, block), np.eye(6) / 6)

    def test_involution_is_bit_exact(self):
        rho = ep.random_density(ep.DimensionProfile((2, 2, 3)), 7, seed=5)
        for block in [(1,), (2,), (3,), (1, 3)]:
            pt = ep.partial_transpose(rho, block)
            # transposing the same block again on the raw matrix restores rho
            perm = list(range(6))
            for i in [b - 1 for b in block]:
                perm[i], perm[3 + i] = perm[3 + i], perm[i]
            restored = pt.reshape(2, 2, 3, 2, 2, 3).transpose(perm).reshape(12, 12)
            assert np.array_equal(restored, rho.matrix)

    def test_ket_is_its_projector(self):
        psi = haar((2, 2, 3), 6)
        rho = ep.density_of(psi)
        for block in [(1,), (2,), (3,), (1, 3), (1, 2, 3)]:
            pt = ep.partial_transpose(psi, block)
            assert np.max(np.abs(pt - ep.partial_transpose(rho, block))) < 1e-15
            # transposing the same block again on the raw matrix restores |psi><psi|
            perm = list(range(6))
            for i in [b - 1 for b in block]:
                perm[i], perm[3 + i] = perm[3 + i], perm[i]
            restored = pt.reshape(2, 2, 3, 2, 2, 3).transpose(perm).reshape(12, 12)
            assert np.array_equal(restored, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    def test_empty_block_rejected(self):
        rho = ep.random_density(ep.DimensionProfile((2, 3)), 4, seed=9)
        for state in (rho, haar((2, 3), 9)):
            with pytest.raises(ep.InputError, match="empty"):
                ep.partial_transpose(state, ())

    def test_preserves_trace_and_hermiticity(self):
        rho = ep.random_density(ep.DimensionProfile((2, 3)), 4, seed=9)
        pt = ep.partial_transpose(rho, (2,))
        assert abs(np.trace(pt) - 1.0) < 1e-14
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-14


class TestReducedSpectrum:
    def test_bell(self):
        assert_allclose(ep.reduced_spectrum(ep.named_state("bell"), (1,)), [0.5, 0.5], atol=1e-14)

    def test_example1_cut_a(self):
        lam = ep.reduced_spectrum(ep.named_state("example1"), (1,))
        assert_allclose(lam, np.array([9, 8, 8]) / 25, atol=1e-13)

    def test_example1_cut_b(self):
        # the 2x2 off-diagonal sector of rho_B is singular, so the spectrum
        # is [19, 6, 0]/25 (confirmed by the brute-force oracle below)
        lam = ep.reduced_spectrum(ep.named_state("example1"), (2,))
        assert_allclose(lam, np.array([19, 6, 0]) / 25, atol=1e-13)

    def test_example1_cut_c(self):
        lam = ep.reduced_spectrum(ep.named_state("example1"), (3,))
        assert_allclose(lam, np.array([14, 9, 2]) / 25, atol=1e-13)

    def test_example1_matches_brute_force(self):
        psi = ep.named_state("example1")
        for k in range(3):
            lam = ep.reduced_spectrum(psi, (k + 1,))
            oracle = brute_reduced_spectrum(psi.amplitudes, (3, 3, 3), [k])
            assert_allclose(lam, oracle, atol=1e-12)

    def test_block_vs_complement_after_padding(self):
        for seed, dims in [(0, (2, 2, 2)), (1, (2, 3, 4)), (2, (3, 3))]:
            psi = haar(dims, seed)
            n = len(dims)
            for r in range(1, n):
                for block in itertools.combinations(range(1, n + 1), r):
                    comp = psi.profile.complement(block)
                    a = ep.reduced_spectrum(psi, block)
                    b = ep.reduced_spectrum(psi, comp)
                    width = max(a.size, b.size)
                    a = np.pad(a, (0, width - a.size))
                    b = np.pad(b, (0, width - b.size))
                    assert_allclose(a, b, atol=1e-10)
                    assert abs(a.sum() - 1.0) < ep.SPECTRUM_SUM_TOL

    def test_stacked_rows_are_single_ket_spectra(self):
        for dims in [(2, 2, 2), (2, 3, 4), (3, 3)]:
            prof = ep.DimensionProfile(dims)
            kets = [haar(dims, seed) for seed in range(7)]
            stack = np.stack([psi.amplitudes for psi in kets])
            for r in range(1, prof.n):
                for block in itertools.combinations(range(1, prof.n + 1), r):
                    lam = reduced_spectra(prof, stack, block)
                    assert lam.shape == (len(kets), prof.block_dim(block))
                    for row, psi in zip(lam, kets):
                        assert np.array_equal(row, ep.reduced_spectrum(psi, block))

    def test_full_or_empty_block_rejected(self):
        psi = ep.named_state("bell")
        with pytest.raises(ep.InputError):
            ep.reduced_spectrum(psi, ())
        with pytest.raises(ep.InputError):
            ep.reduced_spectrum(psi, (1, 2))


class TestSchattenNorm:
    def test_identity_trace_norm(self):
        for d in (2, 5):
            assert abs(ep.schatten_norm(np.eye(d), 1) - d) < 1e-12

    def test_frobenius_of_diagonal(self):
        assert abs(ep.schatten_norm(np.diag([3.0, 4.0]), 2) - 5.0) < 1e-12

    def test_bell_partial_transpose_trace_norm(self):
        pt = ep.partial_transpose(ep.density_of(ep.named_state("bell")), (1,))
        assert abs(ep.schatten_norm(pt, 1) - 2.0) < 1e-12

    def test_non_increasing_in_p(self):
        rng = np.random.default_rng(21)
        grid = [1, 1.5, 2, 4, 10, math.inf]
        for _ in range(10):
            M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            norms = [ep.schatten_norm(M, p) for p in grid]
            for lo, hi in zip(norms[1:], norms[:-1]):
                assert lo <= hi + 1e-12

    def test_infinity_is_largest_singular_value(self):
        M = np.diag([3.0, 4.0])
        assert abs(ep.schatten_norm(M, math.inf) - 4.0) < 1e-12

    def test_pt_trace_norm_at_least_one(self):
        for seed, dims in [(4, (2, 2)), (5, (2, 3)), (6, (3, 3))]:
            rho = ep.random_density(ep.DimensionProfile(dims), dims[0] * dims[1], seed=seed)
            tn = ep.schatten_norm(ep.partial_transpose(rho, (1,)), 1)
            assert tn >= 1.0 - 1e-10
        # equality for a product state
        rho_a = ep.random_density(ep.DimensionProfile((2,)), 2, seed=7).matrix
        rho_b = ep.random_density(ep.DimensionProfile((3,)), 3, seed=8).matrix
        rho = ep.DensityOp(ep.DimensionProfile((2, 3)), np.kron(rho_a, rho_b))
        tn = ep.schatten_norm(ep.partial_transpose(rho, (1,)), 1)
        assert abs(tn - 1.0) < 1e-10

    @pytest.mark.parametrize("bad", [np.diag([np.nan, 1.0]), np.full((2, 2), np.inf)])
    def test_non_finite_matrix_rejected(self, bad):
        # unchecked, a NaN entry stops the SVD from converging and an all-inf matrix yields nan
        with pytest.raises(ep.InputError, match="finite"):
            ep.schatten_norm(bad, 1)

    def test_p_below_one_rejected(self):
        with pytest.raises(ep.InputError):
            ep.schatten_norm(np.eye(2), 0.5)
        with pytest.raises(ep.InputError):  # NaN fails no `p < 1` test and returned NaN
            ep.schatten_norm(np.eye(2), float("nan"))


class TestHaarRandomKet:
    def test_normalized(self):
        psi = haar((2,), 123)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        a = haar((2, 3), 99).amplitudes
        b = haar((2, 3), 99).amplitudes
        assert np.array_equal(a, b)
        c = haar((2, 3), 100).amplitudes
        assert not np.array_equal(a, c)

    def test_mean_top_schmidt_coefficient(self):
        # Monte-Carlo oracle: for two qubits the top marginal eigenvalue
        # averages 7/8 over the Haar measure (density 6(2l-1)^2 on [1/2, 1]).
        total = 0.0
        trials = 10_000
        for t in range(trials):
            psi = ep.haar_random_ket(ep.DimensionProfile((2, 2)), np.random.SeedSequence([77, t]))
            total += float(ep.reduced_spectrum(psi, (1,))[0])
        assert abs(total / trials - 0.875) < 0.02

    def test_unitary_invariance_statistical(self):
        rng = np.random.default_rng(17)
        from helpers import haar_unitary

        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        plain, rotated = 0.0, 0.0
        trials = 2000
        prof = ep.DimensionProfile((2, 2))
        for t in range(trials):
            psi = ep.haar_random_ket(prof, np.random.SeedSequence([18, t]))
            plain += float(ep.reduced_spectrum(psi, (1,))[0])
            rot = ep.Ket(prof, u @ psi.amplitudes)
            rotated += float(ep.reduced_spectrum(rot, (1,))[0])
        assert abs(plain / trials - rotated / trials) < 0.03


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = ep.random_density(ep.DimensionProfile((2, 2)), 1, seed=0)
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        assert abs(purity - 1.0) < 1e-12

    def test_full_rank(self):
        rho = ep.random_density(ep.DimensionProfile((2, 2)), 4, seed=1)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert np.all(evals > 1e-8)

    def test_purity_bounds(self):
        for seed in range(5):
            rho = ep.random_density(ep.DimensionProfile((2, 3)), 3, seed=seed)
            purity = float(np.trace(rho.matrix @ rho.matrix).real)
            assert 0.0 < purity <= 1.0 + 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(ep.InputError):
            ep.random_density(ep.DimensionProfile((2, 2)), 0, seed=0)
        with pytest.raises(ep.InputError):
            ep.random_density(ep.DimensionProfile((2, 2)), 5, seed=0)
        with pytest.raises(ep.InputError, match="whole number"):  # built a rank-2 state
            ep.random_density(ep.DimensionProfile((2, 2)), 2.6, seed=0)


class TestPartition:
    def test_parse(self):
        part = ep.Partition.parse("1|2,3|4")
        assert part.blocks == ((1,), (2, 3), (4,))
        assert part.k == 3 and part.n == 4

    def test_singletons(self):
        assert ep.Partition.singletons(3).blocks == ((1,), (2,), (3,))

    def test_fractional_index_rejected(self):
        # was the partition 1|2
        with pytest.raises(ep.InputError, match="whole number"):
            ep.Partition(((1.9,), (2,)))

    # singletons(2.5) raised a bare TypeError; iter_partitions(2.5) yielded the partitions of 1..2
    @pytest.mark.parametrize("build", [
        lambda: ep.Partition.singletons(2.5),
        lambda: ep.iter_partitions(2.5),
        lambda: ep.iter_partitions(3, 1.5),
        lambda: ep.iter_partitions(3, 1, 2.5),
    ], ids=["singletons", "iter_partitions_n", "min_blocks", "max_blocks"])
    def test_fractional_count_rejected(self, build):
        with pytest.raises(ep.InputError, match="whole number"):
            build()

    @pytest.mark.parametrize("text", ["1|1,2", "1|3", "1|2|", "a|b"])
    def test_bad_partitions(self, text):
        with pytest.raises(ep.InputError):
            ep.Partition.parse(text)

    def test_iter_partitions_counts(self):
        assert len(list(ep.iter_partitions(3, 2, 3))) == 4
        assert len(list(ep.iter_partitions(4, 2, 4))) == 14
        assert len(list(ep.iter_partitions(4, 1, 4))) == 15  # Bell number B(4)

    def test_iter_partitions_are_valid_and_unique(self):
        parts = list(ep.iter_partitions(4, 2, 4))
        seen = {tuple(sorted(p.blocks)) for p in parts}
        assert len(seen) == len(parts)
