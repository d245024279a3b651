"""Closed-form state families against the numeric machinery."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import entpoly as ep


def random_acin(rng):
    return ep.acin_params(np.abs(rng.standard_normal(5)), rng.uniform(0, math.pi))


def random_gw(rng, n, d):
    coeffs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return ep.gw_spec(coeffs)


class TestAcinState:
    def test_basis_placement(self):
        psi = ep.acin_state(ep.AcinParams(1, 0, 0, 0, 0))
        assert_allclose(psi.amplitudes, ep.basis_ket(psi.profile, (0, 0, 0)).amplitudes)

    def test_ghz_params(self):
        s = 1 / math.sqrt(2)
        psi = ep.acin_state(ep.AcinParams(s, 0, 0, 0, s))
        assert_allclose(psi.amplitudes, ep.named_state("ghz(3)").amplitudes, atol=1e-15)

    def test_phase_sits_on_the_100_term(self):
        params = ep.acin_params([0.5, 0.5, 0.5, 0.4, 0.3], theta=1.1)
        psi = ep.acin_state(params)
        idx = ep.flat_index((1, 0, 0), psi.profile)
        amp = psi.amplitudes[idx]
        assert abs(np.angle(amp) - 1.1) < 1e-12
        # every other entry is real non-negative
        rest = np.delete(np.arange(8), idx)
        assert np.max(np.abs(psi.amplitudes[rest].imag)) < 1e-15

    def test_random_params_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            psi = ep.acin_state(random_acin(rng))
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_invalid_params(self):
        with pytest.raises(ep.InputError):
            ep.AcinParams(1, 1, 0, 0, 0)
        with pytest.raises(ep.InputError):
            ep.AcinParams(1, 0, 0, 0, 0, theta=3.5)
        with pytest.raises(ep.InputError):
            ep.AcinParams(-1, 0, 0, 0, 0)


# Each spec was accepted (or normalized into NaN coefficients) because a NaN
# unit-sum deviation fails the `> tol` test; the Acin one then read as genuinely entangled.
@pytest.mark.parametrize("build", [
    lambda: ep.AcinParams(math.nan, 0.6, 0, 0, 0.8),
    lambda: ep.acin_params([math.inf, 1, 1, 1, 1]),
    lambda: ep.GWSpec([[math.nan], [1], [0]]),
    lambda: ep.gw_spec([[math.inf, 1], [1, 1]]),
    lambda: ep.ProductPurificationSpec([math.nan, 0.5], [0.5, 0.5]),
], ids=["AcinParams", "acin_params", "GWSpec", "gw_spec", "ProductPurificationSpec"])
def test_non_finite_coefficients_rejected(build):
    with pytest.raises(ep.InputError):
        build()


@pytest.mark.parametrize("build", [ep.acin_params, ep.gw_spec], ids=["acin_params", "gw_spec"])
def test_all_zero_coefficients_rejected(build):
    with pytest.raises(ep.InputError, match="not all zero"):
        build(np.zeros(5))


def test_huge_acin_coefficients_rejected_without_warning():
    # the squared norm 1e400 overflowed in `_norm`'s dot with a RuntimeWarning before it was rejected
    with pytest.raises(ep.InputError, match="got norm inf$"):
        ep.acin_params([1e200, 0, 0, 0, 0])


# Every norm, trace and probability sum that must be 1 passes tensor._near_one:
# each site builds its input with that quantity at s.
P2 = ep.DimensionProfile((2,))
UNIT_SITES = {
    "ket norm": lambda s: ep.Ket(P2, [s, 0]),
    "density trace": lambda s: ep.DensityOp(P2, np.diag([s, 0.0])),
    "Acin sum l_i^2": lambda s: ep.AcinParams(math.sqrt(s), 0, 0, 0, 0),
    "GW square sum": lambda s: ep.GWSpec([[math.sqrt(s)]]),
    "spectrum a sum": lambda s: ep.ProductPurificationSpec([s - 0.5, 0.5], [0.5, 0.5]),
    "spectrum b sum": lambda s: ep.ProductPurificationSpec([0.5, 0.5], [0.5, s - 0.5]),
}


@pytest.mark.parametrize("build", UNIT_SITES.values(), ids=list(UNIT_SITES))
@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
def test_unit_quantity_within_norm_tol_of_one(build, side):
    build(1.0 + side * 0.5 * ep.NORM_TOL)
    with pytest.raises(ep.InputError, match="must be 1 to within 1e-12"):
        build(1.0 + side * 2.0 * ep.NORM_TOL)


# Each sum, trace or deviation overflowed with a RuntimeWarning before it was rejected.
@pytest.mark.parametrize("build, message", [
    (lambda: ep.gw_spec([[1e200, 0]]), "got norm inf$"),
    (lambda: ep.GWSpec([[1e200], [1]]), "got inf$"),
    (lambda: ep.ProductPurificationSpec([1e308, 1e308], [0.5, 0.5]), r"in \[0, 1\]"),
    (lambda: ep.DensityOp(P2, np.diag([1e308, 1e308])), r"got \(inf\+0j\)$"),
    (lambda: ep.DensityOp(P2, [[0.5, 1e308], [-1e308, 0.5]]), r"not Hermitian \(max deviation inf\)"),
    (lambda: ep.DensityOp(P2, [[0.5, 1e308], [1e308, 0.5]]), r"eigenvalue -1\.000e\+308 below"),
], ids=["gw_spec", "GWSpec", "ProductPurificationSpec", "DensityOp trace", "DensityOp deviation", "DensityOp sum"])
def test_overflow_rejected_without_warning(build, message):
    with pytest.raises(ep.InputError, match=message):
        build()


class TestAcinSpectra:
    def test_ghz_pairs(self):
        s = 1 / math.sqrt(2)
        for pair in ep.acin_schmidt_spectra(ep.AcinParams(s, 0, 0, 0, s)):
            assert_allclose(pair, [0.5, 0.5], atol=1e-12)

    def test_l3_l4_zero_makes_b_cut_trivial(self):
        params = ep.acin_params([0.6, 0.5, 0.4, 0, 0], theta=0.3)
        _, d0, d1 = ep.acin_cut_determinants(params)
        assert abs(d0) < 1e-15
        _, pair_b, _ = ep.acin_schmidt_spectra(params)
        assert_allclose(pair_b, [1.0, 0.0], atol=1e-12)
        assert d1 > 1e-3

    def test_matches_numeric_spectra(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            params = random_acin(rng)
            psi = ep.acin_state(params)
            closed = ep.acin_schmidt_spectra(params)
            for cut, pair in enumerate(closed):
                numeric = ep.reduced_spectrum(psi, (cut + 1,))
                assert_allclose(pair, numeric, atol=1e-10)

    def test_discriminant_bound_guard(self):
        with pytest.raises(ArithmeticError):
            ep.gallery._pair_from_determinant(0.26)


class TestAcinBiseparability:
    def test_l0_zero_is_a_separable(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ls = np.abs(rng.standard_normal(5))
            ls[0] = 0.0
            params = ep.acin_params(ls, rng.uniform(0, math.pi))
            assert "A" in ep.acin_is_biseparable(params)

    def test_ghz_is_genuine(self):
        s = 1 / math.sqrt(2)
        assert ep.acin_is_biseparable(ep.AcinParams(s, 0, 0, 0, s)) == set()

    def test_l3_l4_zero_is_b_separable(self):
        params = ep.acin_params([0.6, 0.5, 0.4, 0, 0], theta=0.2)
        cuts = ep.acin_is_biseparable(params)
        assert cuts == {"B"}

    def test_a_cut_covers_degenerate_tail(self):
        # l2 = l3 = l4 = 0 leaves A in a product with |00>, despite l0 not in {0, 1}
        params = ep.acin_params([0.6, 0.8, 0, 0, 0], theta=0.0)
        cuts = ep.acin_is_biseparable(params)
        assert "A" in cuts
        psi = ep.acin_state(params)
        assert ep.measure_value(psi, (1,), ep.GEM) < 1e-12

    def test_matches_indicator_both_directions(self):
        # Theorem-2 style check: delta vanishes exactly on biseparable draws
        rng = np.random.default_rng(3)
        for _ in range(50):
            ls = np.abs(rng.standard_normal(5))
            ls[rng.integers(0, 5)] = 0.0  # raise the odds of structured draws
            params = ep.acin_params(ls, rng.uniform(0, math.pi))
            psi = ep.acin_state(params)
            delta, _ = ep.indicator_delta(psi, 0.5)
            if ep.acin_is_biseparable(params, tol=1e-12):
                assert abs(delta) < 1e-7
            else:
                assert delta > 1e-7


class TestGWStates:
    def test_standard_w(self):
        spec = ep.gw_spec(np.ones((3, 1)))
        psi = ep.gw_state(spec)
        assert_allclose(psi.amplitudes, ep.named_state("w(3)").amplitudes, atol=1e-15)

    def test_example3_coefficients(self):
        psi = ep.gw_state(ep.example3_gw_spec())
        assert np.array_equal(psi.amplitudes, ep.named_state("example3").amplitudes)

    def test_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            psi = ep.gw_state(random_gw(rng, 4, 2))
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_spec_validation(self):
        with pytest.raises(ep.InputError):
            ep.GWSpec(np.ones((2, 2)))


class TestGWCoarseGrain:
    def test_identity_partition(self):
        spec = ep.example3_gw_spec()
        same = ep.gw_coarse_grain(spec, ep.Partition.singletons(4))
        assert_allclose(same.coeffs, spec.coeffs)

    def test_example3_merge(self):
        spec = ep.example3_gw_spec()
        merged = ep.gw_coarse_grain(spec, ep.Partition.parse("1|2,3|4"))
        assert merged.n == 3
        block2 = merged.coeffs[1]
        nonzero = sorted(np.abs(block2[np.abs(block2) > 1e-15]))
        assert_allclose(nonzero, [0.4, 0.5], atol=1e-15)

    def test_full_merge(self):
        spec = ep.example3_gw_spec()
        merged = ep.gw_coarse_grain(spec, ep.Partition(((1, 2, 3, 4),)))
        assert merged.n == 1
        assert abs(float(np.sum(np.abs(merged.coeffs) ** 2)) - 1.0) < 1e-12

    def test_preserves_one_to_rest_spectra(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spec = random_gw(rng, 4, 2)
            part = ep.Partition.parse("1,3|2|4")
            psi = ep.gw_state(spec)
            merged = ep.gw_state(ep.gw_coarse_grain(spec, part))
            for j, block in enumerate(part.blocks):
                a = ep.reduced_spectrum(psi, block)
                b = ep.reduced_spectrum(merged, (j + 1,))
                a, b = a[a > 1e-12], b[b > 1e-12]
                assert_allclose(np.sort(a), np.sort(b), atol=1e-10)


class TestGWNegativity:
    def test_example3_closed_form(self):
        vals = ep.gw_negativity_closed(ep.example3_gw_spec(), ep.Partition.parse("1|2,3|4"))
        assert_allclose(vals, [0.5, math.sqrt(0.2419), math.sqrt(0.0819)], atol=1e-12)

    def test_balanced_w(self):
        spec = ep.gw_spec(np.ones((3, 1)))
        vals = ep.gw_negativity_closed(spec, ep.Partition.singletons(3))
        assert_allclose(vals, [math.sqrt(2) / 3] * 3, atol=1e-12)

    def test_zero_weight_block(self):
        coeffs = np.zeros((3, 1))
        coeffs[0, 0] = coeffs[1, 0] = 1.0
        spec = ep.gw_spec(coeffs)
        vals = ep.gw_negativity_closed(spec, ep.Partition.singletons(3))
        assert vals[2] == 0.0

    def test_matches_numeric_trace_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(3, 5))  # small systems here; the big sweep is acceptance
            d = int(rng.integers(1, 3))
            spec = random_gw(rng, n, d)
            part = random_partition(rng, n, 3)
            closed = ep.gw_negativity_closed(spec, part)
            psi = ep.gw_state(spec)
            numeric = [ep.negativity(psi, block) for block in part.blocks]
            assert_allclose(closed, numeric, atol=1e-9)

    def test_any_block_count_matches_trace_norm(self):
        # every one-to-rest cut of a GW ket has Schmidt spectrum (w_j, 1 - w_j)
        rng = np.random.default_rng(11)
        for k in range(2, 6):
            for _ in range(8):
                n = int(rng.integers(k, 6))
                spec = random_gw(rng, n, int(rng.integers(1, 4)))
                part = random_partition(rng, n, k)
                psi = ep.gw_state(spec)
                numeric = [ep.negativity(psi, block) for block in part.blocks]
                assert_allclose(ep.gw_negativity_closed(spec, part), numeric, atol=1e-9)

    def test_single_block_rejected(self):
        with pytest.raises(ep.InputError, match="at least 2 blocks"):
            ep.gw_negativity_closed(ep.example3_gw_spec(), ep.Partition(((1, 2, 3, 4),)))

    def test_epi_holds_up_to_alpha_two(self):
        # weights (1 - 2e, e, e) give residual 2(e(1 - e))^(al/2) - (2e(1 - 2e))^(al/2): 2e^2 at al = 2
        eps = 1e-2
        corner = ep.gw_spec(np.sqrt([[1 - 2 * eps], [eps], [eps]]))
        rng = np.random.default_rng(12)
        cases = [(corner, ep.Partition.singletons(3))]
        for k in range(2, 6):
            for _ in range(20):
                n = int(rng.integers(k, 6))
                cases.append((random_gw(rng, n, int(rng.integers(1, 4))), random_partition(rng, n, k)))
        for spec, part in cases:
            closed = ep.gw_negativity_closed(spec, part)
            for alpha in np.linspace(0.05, 2.0, 40):
                residuals = ep.epi_residuals(closed, alpha, allow_unproven=True)
                assert residuals.min() >= -ep.VIOLATION_TOL
        closed = ep.gw_negativity_closed(corner, ep.Partition.singletons(3))
        assert ep.epi_residuals(closed, 2.1, allow_unproven=True).min() < -ep.VIOLATION_TOL

    def test_weight_triple_inequality(self):
        # sqrt(a(b+c)) <= sqrt(b(a+c)) + sqrt(c(a+b)) on random simplex triples
        rng = np.random.default_rng(9)
        for _ in range(500):
            a, b, c = rng.dirichlet(np.ones(3))
            lhs = math.sqrt(max(a, b, c) * (1 - max(a, b, c)))
            vals = sorted([math.sqrt(a * (1 - a)), math.sqrt(b * (1 - b)), math.sqrt(c * (1 - c))])
            assert lhs <= vals[0] + vals[1] + 1e-12


def random_partition(rng, n, k):
    while True:
        labels = rng.integers(0, k, size=n)
        if len(set(labels.tolist())) == k:
            blocks = [[] for _ in range(k)]
            for party, lab in enumerate(labels, start=1):
                blocks[lab].append(party)
            return ep.Partition(tuple(tuple(b) for b in blocks))


class TestProductPurification:
    def test_uniform_matches_example2(self):
        spec = ep.ProductPurificationSpec(np.ones(3) / 3, np.ones(3) / 3)
        psi = ep.product_purification(spec)
        ex2 = ep.named_state("example2")
        # same negativities with the purifier last instead of first
        for cut, ref_cut in [((1,), (2,)), ((2,), (3,)), ((3,), (1,))]:
            assert abs(ep.negativity(psi, cut) - ep.negativity(ex2, ref_cut)) < 1e-9

    def test_marginal_is_the_requested_product(self):
        rng = np.random.default_rng(7)
        spec = ep.ProductPurificationSpec(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2)))
        psi = ep.product_purification(spec)
        red = ep.partial_trace(ep.density_of(psi), (1, 2))
        assert_allclose(red.matrix, np.kron(np.diag(spec.a), np.diag(spec.b)), atol=1e-12)

    def test_rank_one_factor(self):
        a = np.zeros(3)
        a[0] = 1.0
        spec = ep.ProductPurificationSpec(a, np.ones(3) / 3)
        psi = ep.product_purification(spec)
        # the C cut then sees only the B-side entanglement
        assert abs(ep.negativity(psi, (3,)) - ep.negativity(psi, (2,))) < 1e-9

    @pytest.mark.parametrize("bad", [
        [[0.25, 0.25], [0.25, 0.25]],  # was flattened into a 4-vector
        [1.0],  # passed the spec and failed later as a local dimension of 1
        1.0,
    ], ids=["2x2", "one-entry", "scalar"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_spectrum_must_be_a_vector_of_two_or_more(self, bad, side):
        args = {"a": [0.5, 0.5], "b": [0.5, 0.5], side: bad}
        with pytest.raises(ep.InputError, match=f"spectrum {side} must be a vector of 2 or more entries"):
            ep.ProductPurificationSpec(**args)


class TestNegativityGap:
    def test_uniform3(self):
        spec = ep.ProductPurificationSpec(np.ones(3) / 3, np.ones(3) / 3)
        assert abs(ep.negativity_gap_closed(spec) - 2.0) < 1e-12

    def test_rank_one_gives_zero(self):
        a = np.zeros(2)
        a[0] = 1.0
        spec = ep.ProductPurificationSpec(a, np.ones(3) / 3)
        assert abs(ep.negativity_gap_closed(spec)) < 1e-12

    def test_half_half(self):
        spec = ep.ProductPurificationSpec(np.ones(2) / 2, np.ones(2) / 2)
        assert abs(ep.negativity_gap_closed(spec) - 0.5) < 1e-12

    def test_matches_numeric_gap(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            spec = ep.ProductPurificationSpec(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
            psi = ep.product_purification(spec)
            numeric = (
                ep.negativity(psi, (3,)) - ep.negativity(psi, (1,)) - ep.negativity(psi, (2,))
            )
            assert abs(numeric - ep.negativity_gap_closed(spec)) < 1e-9
            assert ep.negativity_gap_closed(spec) > 0


class TestNamedStates:
    def test_example1_shape(self):
        psi = ep.named_state("example1")
        assert psi.profile.dims == (3, 3, 3)
        assert np.count_nonzero(psi.amplitudes) == 5
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_example2_shape(self):
        psi = ep.named_state("example2")
        assert psi.profile.dims == (9, 3, 3)
        nz = psi.amplitudes[np.abs(psi.amplitudes) > 0]
        assert nz.size == 9
        assert_allclose(nz, np.full(9, 1 / 3), atol=1e-15)

    def test_bell(self):
        psi = ep.named_state("bell")
        assert psi.profile.dims == (2, 2)
        assert np.flatnonzero(psi.amplitudes).tolist() == [0, 3]
        assert (psi.amplitudes[[0, 3]] == 1 / math.sqrt(2)).all()

    def test_ghz_w_sizes(self):
        assert ep.named_state("ghz(4)").profile.dims == (2, 2, 2, 2)
        assert ep.named_state("w(5)").profile.dims == (2,) * 5
        for n in range(2, 11):
            ghz, w = ep.named_state(f"ghz({n})").amplitudes, ep.named_state(f"w({n})").amplitudes
            assert np.flatnonzero(ghz).tolist() == [0, 2**n - 1]
            assert (ghz[[0, -1]] == 1 / math.sqrt(2)).all()
            assert np.flatnonzero(w).tolist() == [2**j for j in range(n)]
            assert (w[np.flatnonzero(w)] == 1 / math.sqrt(n)).all()

    def test_unknown_name(self):
        with pytest.raises(ep.InputError):
            ep.named_state("example9")

    def test_name_is_trimmed_and_lower_cased(self):
        assert np.array_equal(ep.named_state(" Bell\n").amplitudes, ep.named_state("bell").amplitudes)
        assert np.array_equal(ep.named_state("GHZ(3) ").amplitudes, ep.ghz_state(3).amplitudes)
        assert np.array_equal(ep.named_state("W(4)").amplitudes, ep.w_state(4).amplitudes)

    @pytest.mark.parametrize("build", [ep.ghz_state, ep.w_state])
    def test_fractional_qubit_count_rejected(self, build):
        # raised a bare TypeError from building the (2,) * n profile
        with pytest.raises(ep.InputError, match="whole number"):
            build(2.5)
