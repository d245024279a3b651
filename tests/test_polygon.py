"""Residuals, the delta indicator, the power lemma, and randomized audits."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import entpoly as ep
from entpoly import polygon
from helpers import random_unit_vector


def product_ket(dims, seed):
    rng = np.random.default_rng(seed)
    amp = np.array([1.0], dtype=complex)
    for d in dims:
        amp = np.kron(amp, random_unit_vector(d, rng))
    return ep.Ket(ep.DimensionProfile(dims), amp)


class TestOneToRest:
    def test_example2_negativity(self):
        psi = ep.named_state("example2")
        vals = ep.one_to_rest_values(psi, ep.Partition.singletons(3), ep.NEGATIVITY)
        assert_allclose(vals, [4.0, 1.0, 1.0], atol=1e-9)

    def test_example3_negativity(self):
        psi = ep.named_state("example3")
        vals = ep.one_to_rest_values(psi, ep.Partition.parse("1|2,3|4"), ep.NEGATIVITY)
        assert_allclose(vals, [0.5, math.sqrt(0.2419), math.sqrt(0.0819)], atol=1e-9)

    def test_ghz_gem(self):
        vals = ep.one_to_rest_values(
            ep.named_state("ghz(3)"), ep.Partition.singletons(3), ep.GEM
        )
        assert_allclose(vals, [0.5, 0.5, 0.5], atol=1e-12)

    def test_single_block_rejected(self):
        psi = ep.named_state("bell")
        with pytest.raises(ep.InputError):
            ep.one_to_rest_values(psi, ep.Partition(((1, 2),)), ep.GEM)


class TestResiduals:
    def test_example1_printed_values(self):
        res = ep.epi_residuals([9 / 25, 14 / 25, 19 / 25], 1.0)
        assert abs(res[2] - 4 / 25) < 1e-12  # residual at the largest entry

    def test_example2_violation(self):
        res = ep.epi_residuals([4.0, 1.0, 1.0], 1.0)
        assert abs(res[0] + 2.0) < 1e-12

    def test_symmetric_pair(self):
        assert_allclose(ep.epi_residuals([0.3, 0.3], 0.7), [0.0, 0.0], atol=1e-15)

    def test_zero_powers(self):
        # 0^alpha := 0, so zero entries contribute nothing at any exponent
        res = ep.epi_residuals([0.0, 0.5, 0.5], 0.25)
        assert abs(res[0] - 2 * 0.5**0.25) < 1e-12

    def test_alpha_domain(self):
        with pytest.raises(ep.InputError):
            ep.epi_residuals([1.0, 1.0], 0.0)
        with pytest.raises(ep.InputError):
            ep.epi_residuals([1.0, 1.0], 1.5)
        # the unproven regime is reachable only on request
        res = ep.epi_residuals([1.0, 1.0], 1.5, allow_unproven=True)
        assert_allclose(res, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        # NaN slipped past the sign check and came out as a clean [1, 0, 0]
        with pytest.raises(ep.InputError, match="finite"):
            ep.epi_residuals([bad, 0.5, 0.5], 1.0)

    @pytest.mark.parametrize("values", [[0.5], 0.5, [[0.5], [0.2]]])
    def test_one_sided_polygon_rejected(self, values):
        # [0.5] gave the residual [-0.707]
        with pytest.raises(ep.InputError, match="at least 2 sides"):
            ep.epi_residuals(values, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, bad):
        with pytest.raises(ep.InputError):
            ep.epi_residuals([0.5, 0.5], bad, allow_unproven=True)

    def test_rows_reduce_along_last_axis(self):
        vals = np.random.default_rng(8).random((5, 3))
        vals[1, 2] = 0.0
        stacked = ep.epi_residuals(vals, 0.75)
        for row, res in zip(vals, stacked):
            assert np.array_equal(res, ep.epi_residuals(row, 0.75))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        vals = rng.random(4)
        perm = [2, 0, 3, 1]
        a = ep.epi_residuals(vals, 0.5)
        b = ep.epi_residuals(vals[perm], 0.5)
        assert_allclose(a[perm], b, atol=1e-14)


class TestIndicator:
    def test_biseparable_product(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        bell = ep.named_state("bell").amplitudes
        amp = np.kron(plus, bell)
        psi = ep.Ket(ep.DimensionProfile((2, 2, 2)), amp)
        delta, _ = ep.indicator_delta(psi, 0.5)
        assert abs(delta) < 1e-9

    def test_full_product(self):
        delta, taus = ep.indicator_delta(product_ket((2, 2, 2), 4), 0.3)
        assert abs(delta) < 1e-9
        assert_allclose(taus, [0.0, 0.0, 0.0], atol=1e-9)

    def test_ghz(self):
        delta, taus = ep.indicator_delta(ep.named_state("ghz(3)"), 0.5)
        assert abs(delta - math.sqrt(0.5)) < 1e-12
        assert_allclose(taus, [math.sqrt(0.5)] * 3, atol=1e-12)

    def test_w_state(self):
        # each W marginal has eigenvalues {2/3, 1/3}, so G = 1/3 per cut
        delta, _ = ep.indicator_delta(ep.named_state("w(3)"), 0.5)
        assert abs(delta - (1 / 3) ** 0.5) < 1e-12

    def test_nonnegative_on_random_states(self):
        alphas = [round(0.1 * k, 1) for k in range(1, 10)]
        for t in range(50):
            psi = ep.haar_random_ket(ep.DimensionProfile((2, 2, 2)), np.random.SeedSequence([13, t]))
            for alpha in alphas:
                delta, taus = ep.indicator_delta(psi, alpha)
                assert delta >= -ep.VIOLATION_TOL
                assert abs(delta - min(taus)) < 1e-15

    def test_alpha_domain_open(self):
        psi = ep.named_state("ghz(3)")
        for bad in (0.0, 1.0, 1.3):
            with pytest.raises(ep.InputError):
                ep.indicator_delta(psi, bad)


class TestPowerInequality:
    def test_examples(self):
        assert ep.power_inequality_holds(0.5, 0.5, 1.0, 0.5)
        for alpha in np.linspace(0.05, 1.0, 20):
            assert ep.power_inequality_holds(6 / 25, 11 / 25, 16 / 25, float(alpha))

    def test_equality_boundary(self):
        a, b = 0.31, 0.47
        assert ep.power_inequality_holds(a, b, a + b, 1.0)

    def test_precondition_enforced(self):
        with pytest.raises(ep.InputError):
            ep.power_inequality_holds(0.1, 0.1, 0.5, 0.5)
        with pytest.raises(ep.InputError):
            ep.power_inequality_holds(0.0, 0.5, 0.4, 0.5)
        with pytest.raises(ep.InputError):
            ep.power_inequality_holds(0.5, 0.5, 0.9, 1.5)

    def test_random_quadruples(self):
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            a, b = rng.uniform(1e-12, 1.0, size=2)
            c = rng.uniform(0.0, min(1.0, a + b))
            c = max(c, 1e-12)
            alpha = rng.uniform(1e-6, 1.0)
            assert ep.power_inequality_holds(a, b, c, alpha)


class TestAlphaSweep:
    def test_example1_paper_values(self):
        pts = ep.alpha_sweep(ep.EXAMPLE1_PAPER_VALUES, [1.0])
        assert abs(pts[0][1] - 0.16) < 1e-12

    def test_example3_values(self):
        vals = [0.5, math.sqrt(0.2419), math.sqrt(0.0819)]
        pts = ep.alpha_sweep(vals, [1.0])
        expected = math.sqrt(0.2419) + math.sqrt(0.0819) - 0.5
        assert abs(pts[0][1] - expected) < 1e-12
        assert abs(pts[0][1] - 0.27801) < 1e-5

    def test_small_alpha_limit(self):
        # three non-zero entries: every power tends to 1, so the residual -> 1
        pts = ep.alpha_sweep([0.36, 0.76, 0.56], [0.01])
        assert pts[0][1] > 0.9

    def test_designated_block_defaults_to_largest(self):
        vals = [9 / 25, 19 / 25, 14 / 25]
        pts = ep.alpha_sweep(vals, [1.0])
        assert abs(pts[0][1] - 0.16) < 1e-12
        pts0 = ep.alpha_sweep(vals, [1.0], block=0)
        assert abs(pts0[0][1] - (19 / 25 + 14 / 25 - 9 / 25)) < 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ep.InputError):
            ep.alpha_sweep([0.5, 0.5], [])

    # [] raised numpy's ValueError from argmax; block 1.5 raised an IndexError;
    # a stack of value rows raised a TypeError
    @pytest.mark.parametrize(
        "values, block",
        [([], None), ([0.5, -0.1], None), ([0.5, 0.5], 1.5), ([[0.5, 0.5], [0.3, 0.2]], None)],
    )
    def test_bad_values_or_block_rejected(self, values, block):
        with pytest.raises(ep.InputError):
            ep.alpha_sweep(values, [0.5], block=block)


class TestAudit:
    def test_gem_haar_no_violations(self):
        prof = ep.DimensionProfile((2, 2, 2))
        summary = ep.audit_random(prof, None, ep.GEM, 1.0, 1000, seed=101)
        assert summary.violations == 0
        assert summary.worst_residual >= -ep.VIOLATION_TOL

    def test_concurrence_qutrits_no_violations(self):
        prof = ep.DimensionProfile((3, 3, 3))
        summary = ep.audit_random(prof, None, ep.CONCURRENCE, 1.0, 200, seed=102)
        assert summary.violations == 0

    def test_purification_all_violations(self):
        prof = ep.DimensionProfile((3, 3, 9))
        summary = ep.audit_random(prof, None, ep.NEGATIVITY, 1.0, 100, seed=103, sampler="purification")
        assert summary.violations == summary.trials

    def test_purification_profile_shorthand(self):
        a = ep.audit_random(ep.DimensionProfile((3, 3)), None, ep.NEGATIVITY, 1.0, 20, seed=7, sampler="purification")
        b = ep.audit_random(ep.DimensionProfile((3, 3, 9)), None, ep.NEGATIVITY, 1.0, 20, seed=7, sampler="purification")
        assert a.worst_residual == b.worst_residual

    def test_gw_sampler_no_violations(self):
        prof = ep.DimensionProfile((3, 3, 3, 3))
        summary = ep.audit_random(prof, None, ep.NEGATIVITY, 0.5, 100, seed=104, sampler="gw")
        assert summary.violations == 0

    def test_deterministic_and_replayable(self):
        prof = ep.DimensionProfile((2, 3))
        a = ep.audit_random(prof, None, ep.GEM, 0.5, 50, seed=9)
        b = ep.audit_random(prof, None, ep.GEM, 0.5, 50, seed=9)
        assert a == b
        report = ep.audit_trial_report(prof, None, ep.GEM, 0.5, 9, a.worst_trial)
        assert abs(report.min_residual - a.worst_residual) < 1e-15
        assert a.worst_seed == (9, a.worst_trial)

    def test_trial_reports_independent_of_order(self):
        prof = ep.DimensionProfile((2, 2, 2))
        forward = [
            ep.audit_trial_report(prof, None, ep.GEM, 1.0, 5, t).min_residual for t in range(10)
        ]
        backward = [
            ep.audit_trial_report(prof, None, ep.GEM, 1.0, 5, t).min_residual
            for t in reversed(range(10))
        ]
        assert forward == backward[::-1]

    @pytest.mark.parametrize(
        "sampler, dims, kind, alpha",
        [
            ("haar", (2, 2, 2), ep.GEM, 0.5),
            ("haar", (2, 3, 4), ep.q_concurrence_kind(1.7), 0.75),
            ("purification", (3, 3), ep.NEGATIVITY, 1.0),
            ("gw", (3, 3, 3, 3), ep.NEGATIVITY, 0.25),
        ],
    )
    @pytest.mark.parametrize("chunk_trials", [1, 3, 4])
    def test_chunked_audit_equals_replays(self, monkeypatch, sampler, dims, kind, alpha, chunk_trials):
        prof = ep.DimensionProfile(dims)
        state_dim = ep.sample_state(prof, sampler, 0, 0).profile.total_dim
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", chunk_trials * state_dim)
        trials = 10  # at least three chunks, the last one partial unless chunk_trials == 1
        summary = ep.audit_random(prof, None, kind, alpha, trials, seed=23, sampler=sampler)
        mins = [
            ep.audit_trial_report(prof, None, kind, alpha, 23, t, sampler=sampler).min_residual
            for t in range(trials)
        ]
        assert summary.violations == sum(m < -ep.VIOLATION_TOL for m in mins)
        assert summary.worst_residual == min(mins)
        assert summary.worst_trial == mins.index(min(mins))

    def test_worst_trial_is_first_of_ties(self, monkeypatch):
        # identical trials tie on the minimum residual; the first one is reported
        psi = ep.named_state("w(3)")
        monkeypatch.setattr(polygon, "sample_state", lambda profile, sampler, seed, trial: psi)
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", 2 * psi.profile.total_dim)
        summary = ep.audit_random(psi.profile, None, ep.GEM, 0.5, 5, seed=1)
        assert summary.worst_trial == 0
        report = ep.epi_report(psi, ep.Partition.singletons(3), ep.GEM, 0.5)
        assert summary.worst_residual == report.min_residual

    def test_trials_validation(self):
        with pytest.raises(ep.InputError):
            ep.audit_random(ep.DimensionProfile((2, 2)), None, ep.GEM, 1.0, 0, seed=1)

    def test_bad_sampler(self):
        with pytest.raises(ep.InputError):
            ep.audit_random(ep.DimensionProfile((2, 2)), None, ep.GEM, 1.0, 5, seed=1, sampler="ppt")
        with pytest.raises(ep.InputError, match="unknown sampler"):
            ep.sample_state(ep.DimensionProfile((2, 2)), ["haar"], 1, 0)

    @pytest.mark.parametrize("sampler, dims", [("purification", (2, 2, 2)), ("gw", (2, 3))])
    def test_sampler_profile_rules(self, sampler, dims):
        # purification takes [da, db] or [da, db, da*db]; gw needs equal local dimensions
        prof = ep.DimensionProfile(dims)
        with pytest.raises(ep.InputError, match=f"{sampler} sampler needs"):
            ep.sample_state(prof, sampler, 1, 0)
        with pytest.raises(ep.InputError, match=f"{sampler} sampler needs"):
            ep.audit_random(prof, None, ep.NEGATIVITY, 1.0, 5, seed=1, sampler=sampler)

    @pytest.mark.parametrize("sampler, dims, text, covered, expected", [
        ("haar", (2, 2), "1|2|3", 3, 2),
        ("purification", (3, 3), "1|2", 2, 3),  # the purifier is a third party
    ])
    def test_partition_must_cover_the_sampled_state(self, sampler, dims, text, covered, expected):
        prof, part = ep.DimensionProfile(dims), ep.Partition.parse(text)
        message = f"partition covers {covered} parties, expected {expected}"
        with pytest.raises(ep.InputError, match=message):
            ep.audit_random(prof, part, ep.NEGATIVITY, 1.0, 5, seed=1, sampler=sampler)
        with pytest.raises(ep.InputError, match=message):
            ep.audit_trial_report(prof, part, ep.NEGATIVITY, 1.0, 1, 0, sampler=sampler)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    def test_bad_tolerance_rejected(self, bad):
        # every purification trial violates; a NaN or infinite tolerance counted none
        prof = ep.DimensionProfile((3, 3))
        with pytest.raises(ep.InputError, match="tolerance"):
            ep.audit_random(prof, None, ep.NEGATIVITY, 1.0, 5, seed=1, sampler="purification", tolerance=bad)
        assert ep.audit_random(prof, None, ep.NEGATIVITY, 1.0, 5, seed=1, sampler="purification",
                               tolerance=0.0).violations == 5

    @pytest.mark.parametrize("sampler", polygon.SAMPLERS)
    def test_negative_seed_or_trial_rejected(self, sampler):
        # numpy's SeedSequence raised a plain ValueError, which the CLI reports as an internal error
        prof = ep.DimensionProfile((2, 2))
        with pytest.raises(ep.InputError, match="non-negative"):
            ep.audit_random(prof, None, ep.GEM, 1.0, 3, seed=-1, sampler=sampler)
        for seed, trial in ((-1, 0), (0, -1)):
            with pytest.raises(ep.InputError, match="non-negative"):
                ep.sample_state(prof, sampler, seed, trial)
        # fractional values were truncated: seed 2.5 drew seed 2's stream, 2.9 trials ran 2
        for seed, trial in ((2.5, 0), (0, 1.5)):
            with pytest.raises(ep.InputError, match="whole number"):
                ep.sample_state(prof, sampler, seed, trial)
        for trials, seed in ((2.9, 0), (3, 2.5)):
            with pytest.raises(ep.InputError, match="whole number"):
                ep.audit_random(prof, None, ep.GEM, 1.0, trials, seed=seed, sampler=sampler)

    def test_whole_valued_trials_and_seed_accepted(self):
        prof = ep.DimensionProfile((2, 2))
        ref = ep.audit_random(prof, None, ep.GEM, 1.0, 3, seed=2)
        assert ep.audit_random(prof, None, ep.GEM, 1.0, 3.0, seed=np.int64(2)) == ref
        assert ep.audit_random(prof, None, ep.GEM, 1.0, np.int64(3), seed=2.0) == ref
        psi = ep.sample_state(prof, "haar", 2.0, np.int64(1))
        assert np.array_equal(psi.amplitudes, ep.sample_state(prof, "haar", 2, 1).amplitudes)

    def test_haar_trial_draws_from_trial_rng(self):
        prof = ep.DimensionProfile((2, 3, 4))
        for trial in range(5):
            psi = ep.sample_state(prof, "haar", 17, trial)
            ref = ep.haar_random_ket(prof, np.random.SeedSequence([17, trial]))
            assert np.array_equal(psi.amplitudes, ref.amplitudes)


class TestEpiReport:
    def test_report_fields(self):
        psi = ep.named_state("example2")
        report = ep.epi_report(psi, ep.Partition.singletons(3), ep.NEGATIVITY, 1.0)
        assert report.holds is False
        assert abs(report.min_residual + 2.0) < 1e-9
        assert len(report.values) == len(report.residuals) == 3
        assert report.min_residual == min(report.residuals)

    def test_holds_for_example3(self):
        psi = ep.named_state("example3")
        report = ep.epi_report(psi, ep.Partition.parse("1|2,3|4"), ep.NEGATIVITY, 1.0)
        assert report.holds is True

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, bad):
        # example2 violates by 2; an infinite tolerance reported that it holds
        psi = ep.named_state("example2")
        with pytest.raises(ep.InputError, match="tolerance"):
            ep.epi_report(psi, ep.Partition.singletons(3), ep.NEGATIVITY, 1.0, tolerance=bad)


# Every real-valued parameter goes through tensor._real: float() alone would
# convert "0.5" and True, and a numpy complex with only a warning.
REAL_PARAMETERS = {
    "qconcurrence q": ep.q_concurrence_kind,
    "alpha": lambda v: ep.epi_residuals([0.5, 0.25], v, allow_unproven=True),
    "tolerance": lambda v: ep.audit_random(ep.DimensionProfile((2, 2)), None, ep.GEM, 1.0, 2, 1, tolerance=v),
    "indicator alpha": lambda v: ep.indicator_delta(ep.named_state("w(3)"), v),
    "alpha grid entry": lambda v: ep.alpha_sweep([0.5, 0.25], [v], allow_unproven=True),
    "Schatten p": lambda v: ep.schatten_norm(np.diag([3.0, 4.0]), v),
}


def _outcome(entry, value):
    try:
        return repr(entry(value))
    except ep.InputError as exc:  # a range check: the same for a value and its float
        return f"InputError: {exc}"


@pytest.mark.parametrize("entry", REAL_PARAMETERS.values(), ids=list(REAL_PARAMETERS))
class TestRealParameters:
    @pytest.mark.parametrize("bad", ["0.5", b"1", True, np.True_, None, 1j, np.complex128(1)], ids=repr)
    def test_non_real_rejected(self, entry, bad):
        with pytest.raises(ep.InputError, match="expected a real"):
            entry(bad)

    @pytest.mark.parametrize("good", [2, np.int64(2), np.float64(0.5)], ids=repr)
    def test_real_acts_as_its_float(self, entry, good):
        assert _outcome(entry, good) == _outcome(entry, float(good))
