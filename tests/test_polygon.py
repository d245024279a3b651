"""Residuals, the delta indicator, the power lemma, and randomized audits."""

import itertools
import json
import math
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

import entpoly as ep
from entpoly import polygon
from entpoly.cli import main
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

    @pytest.mark.parametrize("values, alpha", [
        ([4.0, 1.0, 1.0], 1e308),  # 4^alpha overflows: the residuals were [nan, inf, inf]
        ([1e308, 1e308], 1.0),  # each power is finite, their sum is not
    ])
    def test_overflowing_powers_rejected(self, values, alpha):
        with pytest.raises(ep.InputError, match="overflows"):
            ep.epi_residuals(values, alpha, allow_unproven=True)

    def test_underflowing_powers_are_zero(self):
        # a power below the smallest float is 0, which is the value it rounds to
        assert_allclose(ep.epi_residuals([0.5, 0.5], 1e308, allow_unproven=True), [0.0, 0.0])

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
        assert report.min_residual == a.worst_residual
        assert a.worst_seed == (9, a.worst_trial)

    @pytest.mark.parametrize("kind, alpha", [(ep.GEM, 0.5), (ep.CONCURRENCE, 1.0), (ep.GEM, 4.0)])
    def test_nine_blocks_replay_bit_exactly_across_chunks(self, monkeypatch, kind, alpha):
        # at k = 9 numpy sums each row of powers pairwise, not in sequence
        prof = ep.DimensionProfile((2,) * 9)
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", 4 * prof.total_dim)  # 4, 4 and 3 trials
        summary = ep.audit_random(prof, None, kind, alpha, 11, seed=7, allow_unproven=True)  # worst: 4, 10, 0
        assert polygon._chunk.cache_info().misses == 3
        mins = [ep.audit_trial_report(prof, None, kind, alpha, 7, t, allow_unproven=True).min_residual
                for t in range(11)]
        assert summary.worst_residual == min(mins)
        assert summary.worst_trial == mins.index(min(mins))
        assert summary.violations == sum(m < -ep.VIOLATION_TOL for m in mins)

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
        monkeypatch.setitem(
            polygon.SAMPLERS, "haar", lambda profile, seed, trials: np.stack([psi.amplitudes] * len(trials))
        )
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
    def test_sampler_profile_rules(self, monkeypatch, sampler, dims):
        # purification takes [da, db] or [da, db, da*db]; gw needs equal local dimensions, checked before any draw
        draws = []
        monkeypatch.setitem(polygon.SAMPLERS, sampler, lambda *args: draws.append(args))
        prof = ep.DimensionProfile(dims)
        with pytest.raises(ep.InputError, match=f"{sampler} sampler needs"):
            ep.sample_state(prof, sampler, 1, 0)
        with pytest.raises(ep.InputError, match=f"{sampler} sampler needs"):
            ep.audit_random(prof, None, ep.NEGATIVITY, 1.0, 5, seed=1, sampler=sampler)
        assert draws == []

    @pytest.mark.parametrize("partition, measure, alpha", [
        (None, ep.GEM, float("nan")),
        (None, ep.GEM, 1.5),
        (None, "gem", 0.5),
        (ep.Partition.parse("1|2"), ep.GEM, 0.5),
    ], ids=["nan-alpha", "unproven-alpha", "measure-name", "uncovering-partition"])
    def test_replay_checks_its_inputs_before_the_draw(self, monkeypatch, partition, measure, alpha):
        # a replay drew and decomposed the state before it rejected an input
        draws = []
        monkeypatch.setitem(polygon.SAMPLERS, "haar", lambda *args: draws.append(args))
        with pytest.raises(ep.InputError):
            ep.audit_trial_report(ep.DimensionProfile((2, 2, 2)), partition, measure, alpha, 1, 0)
        assert draws == []

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


# Seeds and trials of one, two and three 32-bit words, so the hashed entropy runs to several words.
WIDE_WORDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)


def _seed_sequence_rng(seed, trial):
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _parts(*texts):
    return [None if t is None else ep.Partition.parse(t) for t in texts]


def _shuffled_audits(seed):
    """Small single-target audits over every sampler, two master seeds, in a shuffled order."""
    audits = [
        (ep.DimensionProfile(dims), part, kind, alpha, trials, master, sampler)
        for sampler, dims, part in [
            ("haar", (2, 2, 2), None),
            ("haar", (2, 3, 4), *_parts("1,3|2")),
            ("haar", (2, 2, 2, 2), *_parts("1|2|3,4")),
            ("purification", (2, 3), None),
            ("gw", (3, 3, 3), *_parts("1|2,3")),
        ]
        for kind in (ep.GEM, ep.CONCURRENCE)
        for alpha in (0.5, 1.0)
        for trials, master in ((7, 1), (12, 2))
    ]
    order = np.random.default_rng(seed).permutation(len(audits))
    return [audits[i] for i in order]


def _run_audit(audit):
    prof, part, kind, alpha, trials, master, sampler = audit
    return ep.audit_random(prof, part, kind, alpha, trials, master, sampler=sampler)


class TestChunkMemo:
    def test_trial_rng_is_the_seed_sequence_stream(self):
        for seed, trial in itertools.product(WIDE_WORDS, repeat=2):
            rng, ref = polygon.trial_rng(seed, trial), _seed_sequence_rng(seed, trial)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.standard_normal(64), ref.standard_normal(64))
            assert np.array_equal(rng.integers(0, 2**63, 8), ref.integers(0, 2**63, 8))

    @pytest.mark.parametrize("sampler, dims", [("haar", (2, 3)), ("purification", (2, 3)), ("gw", (3, 3, 3))])
    def test_audit_equal_cold_warm_and_cleared(self, monkeypatch, sampler, dims):
        prof = ep.DimensionProfile(dims)
        state_dim = ep.sample_state(prof, sampler, 0, 0).profile.total_dim
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", 4 * state_dim)  # 3 chunks, the last one partial
        args = (prof, None, ep.CONCURRENCE, 0.5, 10, 11)
        cold = ep.audit_random(*args, sampler=sampler)
        assert polygon._chunk.cache_info()[:2] == (0, 3)  # hits, misses
        warm = ep.audit_random(*args, sampler=sampler)
        assert polygon._chunk.cache_info()[:2] == (3, 3)
        polygon._chunk.cache_clear()
        assert cold == warm == ep.audit_random(*args, sampler=sampler)
        mins = [ep.audit_trial_report(prof, None, ep.CONCURRENCE, 0.5, 11, t, sampler=sampler).min_residual
                for t in range(10)]
        assert (cold.worst_residual, cold.worst_trial) == (min(mins), mins.index(min(mins)))

    def test_memo_stays_within_its_bound(self, monkeypatch):
        prof = ep.DimensionProfile((2, 2))
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", 4 * prof.total_dim)
        bound = polygon.AUDIT_CHUNK_CACHE
        ep.audit_random(prof, None, ep.GEM, 1.0, 4 * (bound + 10), seed=8)
        info = polygon._chunk.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (bound, bound, bound + 10)

    def test_retained_memory_does_not_grow_with_the_trial_count(self, monkeypatch):
        prof = ep.DimensionProfile((2, 2))
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", 4 * prof.total_dim)
        ep.audit_random(prof, None, ep.GEM, 1.0, 4000, seed=3)  # warms numpy's internal caches
        retained = []
        for trials in (40, 4000):
            polygon._chunk.cache_clear()
            tracemalloc.start()
            try:
                ep.audit_random(prof, None, ep.GEM, 1.0, trials, seed=3)
                retained.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        assert polygon._chunk.cache_info().currsize == polygon.AUDIT_CHUNK_CACHE
        assert abs(retained[1] - retained[0]) < 4 * 1024

    @pytest.mark.parametrize("sampler, dims", [("haar", (2, 2, 2)), ("purification", (2, 2)), ("gw", (3, 3, 3))])
    def test_memoized_rows_and_spectra_are_read_only(self, sampler, dims):
        prof = ep.DimensionProfile(dims)
        summary = ep.audit_random(prof, None, ep.GEM, 0.5, 5, seed=4, sampler=sampler)
        state_profile = ep.sample_state(prof, sampler, 4, 0).profile
        rows, memo = polygon._chunk(polygon.SAMPLERS[sampler], state_profile, 4, 0, 5)
        assert polygon._chunk.cache_info()[:2] == (1, 1)  # the audit's own chunk, not a fresh draw
        blocks = summary.partition.blocks
        # one spectra array per block, and one value column per (block, measure name)
        assert set(memo) == set(blocks) | {(block, "gem") for block in blocks}
        columns = []
        for block in blocks:
            kind, column = memo[block, "gem"]
            assert kind == ep.GEM and column.shape == (5,)
            columns.append(column)
        for array in (rows, *(memo[block] for block in blocks), *columns):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0

    def test_one_qconcurrence_column_per_block_whatever_the_q(self):
        prof = ep.DimensionProfile((2, 2, 2))
        kinds = [ep.q_concurrence_kind(q) for q in np.linspace(1.1, 5.0, 20)]
        parts = [ep.Partition.singletons(3), ep.Partition.parse("1,2|3")]
        warm = [ep.audit_random(prof, part, kind, 0.75, 6, seed=2) for part in parts for kind in kinds]
        plan = ep.audit_plan(prof, parts, kinds, [0.75], 6, seed=2)  # every q again, on the shared blocks
        rows, memo = polygon._chunk(polygon.SAMPLERS["haar"], prof, 2, 0, 6)
        assert polygon._chunk.cache_info()[:2] == (41, 1)  # one draw for the 41 audits and this lookup
        blocks = {block for part in parts for block in part.blocks}
        assert set(memo) == blocks | {(block, "qconcurrence") for block in blocks}
        assert all(memo[block, "qconcurrence"][0] == kinds[-1] for block in blocks)
        cleared = []
        for part in parts:
            for kind in kinds:
                polygon._chunk.cache_clear()
                cleared.append(ep.audit_random(prof, part, kind, 0.75, 6, seed=2))
        assert warm == cleared == plan

    def test_replaced_sampler_is_never_served_real_rows(self, monkeypatch):
        psi = ep.named_state("w(3)")
        prof, part = psi.profile, ep.Partition.singletons(3)
        real = ep.audit_random(prof, None, ep.GEM, 0.5, 5, seed=1)
        monkeypatch.setitem(
            polygon.SAMPLERS, "haar", lambda profile, seed, trials: np.stack([psi.amplitudes] * len(trials))
        )
        fake = ep.audit_random(prof, None, ep.GEM, 0.5, 5, seed=1)
        assert (fake.worst_residual, fake.worst_trial) == (ep.epi_report(psi, part, ep.GEM, 0.5).min_residual, 0)
        assert fake.worst_residual != real.worst_residual
        monkeypatch.undo()
        assert ep.audit_random(prof, None, ep.GEM, 0.5, 5, seed=1) == real

    def test_threads_give_the_serial_summaries(self, monkeypatch):
        # several chunks per audit, so threads share and evict them
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", 256)
        audits = _shuffled_audits(0)
        serial = [_run_audit(audit) for audit in audits]
        polygon._chunk.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside chunk fills and spectrum writes
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(_run_audit, audits, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestChunkDraw:
    @pytest.mark.parametrize("sampler, dims", [
        ("haar", (2, 2, 2)), ("haar", (3, 3, 3)), ("haar", (2, 3, 4)), ("haar", (2, 2, 2, 2)), ("haar", (2,) * 10),
        ("purification", (3, 3)), ("gw", (3, 3, 3)),
    ])
    @pytest.mark.parametrize("chunk_trials", [1, 3, 4])
    def test_chunk_rows_equal_replays_bit_for_bit(self, monkeypatch, sampler, dims, chunk_trials):
        prof, trials, seed = ep.DimensionProfile(dims), 10, 29
        state_profile = ep.sample_state(prof, sampler, seed, 0).profile
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", chunk_trials * state_profile.total_dim)
        chunks = []
        real = polygon.SAMPLERS[sampler]
        monkeypatch.setitem(polygon.SAMPLERS, sampler, lambda *args: chunks.append(real(*args)) or chunks[-1])
        ep.audit_random(prof, None, ep.GEM, 0.5, trials, seed, sampler=sampler)
        # at least three chunks, the last one partial unless chunk_trials == 1
        full, rest = divmod(trials, chunk_trials)
        assert [len(rows) for rows in chunks] == [chunk_trials] * full + [rest] * (rest > 0)
        rows = np.concatenate(chunks)
        for t, row in enumerate(rows):
            assert row.tobytes() == ep.sample_state(prof, sampler, seed, t).amplitudes.tobytes()
            if sampler == "haar":
                ref = ep.haar_random_ket(prof, np.random.SeedSequence([seed, t]))
                assert row.tobytes() == ref.amplitudes.tobytes()

    def test_replay_is_the_one_row_draw(self, monkeypatch):
        draws = []
        real = polygon.SAMPLERS["gw"]
        monkeypatch.setitem(polygon.SAMPLERS, "gw", lambda *args: draws.append(args) or real(*args))
        psi = ep.sample_state(ep.DimensionProfile((3, 3, 3)), "gw", 4, 7)
        assert draws == [(psi.profile, 4, range(7, 8))]


class TestAuditPlan:
    @pytest.mark.parametrize(
        "sampler, dims, partitions, measures, alphas",
        [
            ("haar", (2, 2, 2), _parts(None, "1,2|3", "1|2,3"), [ep.GEM, ep.CONCURRENCE], [0.5, 1.0]),
            ("haar", (2, 3, 4), _parts("1,3|2", None), [ep.q_concurrence_kind(1.7), ep.NEGATIVITY], [0.25, 0.75]),
            # the profile [3, 3] is learned from the first draw: the purifier is a third party
            ("purification", (3, 3), _parts(None, "1,2|3", "1|2,3"), [ep.NEGATIVITY, ep.GEM], [0.5, 1.0]),
            ("gw", (3, 3, 3, 3), _parts(None, "1,2|3,4", "1|2|3,4"), [ep.NEGATIVITY, ep.CONCURRENCE], [0.25, 1.0]),
        ],
        ids=["haar-222", "haar-234", "purification-33", "gw-3333"],
    )
    @pytest.mark.parametrize("chunk_trials", [1, 3, 4])
    def test_plan_equals_single_target_audits(
        self, monkeypatch, sampler, dims, partitions, measures, alphas, chunk_trials
    ):
        prof = ep.DimensionProfile(dims)
        state_dim = ep.sample_state(prof, sampler, 0, 0).profile.total_dim
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", chunk_trials * state_dim)
        trials = 10  # at least three chunks, the last one partial unless chunk_trials == 1
        plan = ep.audit_plan(prof, partitions, measures, alphas, trials, 23, sampler=sampler, allow_unproven=True)
        targets = list(itertools.product(partitions, measures, alphas))
        assert len(plan) == len(targets)
        for summary, (part, kind, alpha) in zip(plan, targets):
            single = ep.audit_random(prof, part, kind, alpha, trials, 23, sampler=sampler, allow_unproven=True)
            assert summary == single

    def test_one_value_column_per_block_and_measure(self, monkeypatch):
        # partition-major, q = 2 and q = 3 swapped their shared (block, "qconcurrence") slot once per partition
        calls = []
        real = ep.MeasureKind.of_spectra
        monkeypatch.setattr(
            ep.MeasureKind, "of_spectra", lambda kind, lam: calls.append((kind, id(lam))) or real(kind, lam)
        )
        prof = ep.DimensionProfile((2, 2, 2, 2))
        parts = list(ep.iter_partitions(prof.n, 2, 4))
        kinds = [ep.CONCURRENCE, ep.q_concurrence_kind(2), ep.q_concurrence_kind(3)]
        plan = ep.audit_plan(prof, parts, kinds, [0.5, 1.0], 50, seed=5)  # one chunk
        blocks = {block for part in parts for block in part.blocks}
        assert len(calls) == len(set(calls)) == len(kinds) * len(blocks)
        for summary, (part, kind, alpha) in zip(plan, itertools.product(parts, kinds, [0.5, 1.0])):
            polygon._chunk.cache_clear()
            assert summary == ep.audit_random(prof, part, kind, alpha, 50, seed=5)

    def test_tie_across_a_chunk_boundary_keeps_the_earliest_trial(self, monkeypatch):
        # w(3) is the worse state for both measures; trials 2 | 3 tie across the chunk boundary
        worse, better = ep.named_state("w(3)"), ep.named_state("ghz(3)")
        monkeypatch.setitem(
            polygon.SAMPLERS, "haar",
            lambda profile, seed, trials: np.stack([(worse if t in (2, 3, 5) else better).amplitudes for t in trials]),
        )
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", 3 * worse.profile.total_dim)
        prof = worse.profile
        plan = ep.audit_plan(prof, [None], [ep.GEM, ep.CONCURRENCE], [0.5, 1.0], 7, 1)
        for summary in plan:
            assert summary.worst_trial == 2
            report = ep.epi_report(worse, summary.partition, summary.measure, summary.alpha)
            assert summary.worst_residual == report.min_residual
            assert summary == ep.audit_random(prof, None, summary.measure, summary.alpha, 7, 1)

    def test_memory_does_not_grow_with_the_trial_count(self, monkeypatch):
        prof = ep.DimensionProfile((2, 2))
        monkeypatch.setattr(polygon, "AUDIT_CHUNK_ELEMS", 4 * prof.total_dim)
        # warm-up: a first long run leaves about 100 KiB in numpy's internal caches, whatever the audit keeps
        ep.audit_random(prof, None, ep.GEM, 1.0, 4000, seed=3)
        peaks = []
        for trials in (40, 4000):
            tracemalloc.start()
            try:
                ep.audit_random(prof, None, ep.GEM, 1.0, trials, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 16 * 1024

    @pytest.mark.parametrize(
        "partitions, measures, alphas, extra",
        [
            ([], [ep.GEM], [0.5], {}),
            ([None], [], [0.5], {}),
            ([None], [ep.GEM], [], {}),
            ([None], [ep.GEM], [0.5, float("nan")], {}),
            ([None], [ep.GEM], [0.5, 0.0], {"allow_unproven": True}),
            ([None], [ep.GEM], [0.5, "0.5"], {}),
            ([None], [ep.GEM], [0.5, 1.5], {}),
            ([None], [ep.GEM], [0.5], {"sampler": "nope"}),
            ([None], [ep.GEM], [0.5], {"trials": 0}),
            ([None], [ep.GEM, "gem"], [0.5], {}),
        ],
    )
    def test_bad_input_rejected_before_any_draw(self, monkeypatch, partitions, measures, alphas, extra):
        draws = []
        real = polygon.SAMPLERS["haar"]
        monkeypatch.setitem(polygon.SAMPLERS, "haar", lambda *args: draws.append(args) or real(*args))
        kwargs = {"trials": 5, **extra}
        trials = kwargs.pop("trials")
        with pytest.raises(ep.InputError):
            ep.audit_plan(ep.DimensionProfile((2, 2)), partitions, measures, alphas, trials, 1, **kwargs)
        assert draws == []

    def test_unproven_alpha_accepted_with_opt_in(self):
        plan = ep.audit_plan(ep.DimensionProfile((2, 2)), [None], [ep.GEM], [0.5, 1.5], 5, 1, allow_unproven=True)
        assert [s.alpha for s in plan] == [0.5, 1.5]

    def test_partition_must_cover_the_sampled_state(self):
        prof = ep.DimensionProfile((2, 2))
        with pytest.raises(ep.InputError, match="partition covers 3 parties, expected 2"):
            ep.audit_plan(prof, _parts(None, "1|2|3"), [ep.GEM], [0.5], 5, 1)

    def test_uncovering_partition_rejected_before_any_draw(self, monkeypatch):
        # the cover check ran per chunk of spectra, so all 5000 trials were drawn first
        draws = []
        real = polygon.SAMPLERS["haar"]
        monkeypatch.setitem(polygon.SAMPLERS, "haar", lambda *args: draws.append(args) or real(*args))
        with pytest.raises(ep.InputError, match="partition covers 3 parties, expected 2"):
            ep.audit_plan(ep.DimensionProfile((2, 2)), _parts("1|2|3"), [ep.GEM], [0.5], 5000, 1)
        assert draws == []


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

    def test_measure_must_be_a_measure_kind(self):
        # a measure name raised a bare AttributeError from deep in the kernel
        psi = ep.named_state("example3")
        with pytest.raises(ep.InputError, match="measure must be a MeasureKind, got 'negativity'"):
            ep.epi_report(psi, ep.Partition.parse("1|2,3|4"), "negativity", 1.0)


@pytest.mark.parametrize("threshold, holds", [(2.0, True), (1.999, False)])
def test_every_verdict_reads_violation_tol_at_call_time(monkeypatch, threshold, holds):
    # example2's negativity residuals at alpha = 1 are exactly (-2, 4, 4)
    monkeypatch.setattr(polygon, "VIOLATION_TOL", threshold)
    psi = ep.named_state("example2")
    assert ep.epi_report(psi, ep.Partition.singletons(3), ep.NEGATIVITY, 1.0).holds is holds
    monkeypatch.setitem(
        polygon.SAMPLERS, "haar", lambda profile, seed, trials: np.stack([psi.amplitudes] * len(trials))
    )
    summary = ep.audit_random(psi.profile, None, ep.NEGATIVITY, 1.0, 5, seed=1)
    assert summary.violations == (0 if holds else 5)
    res = CliRunner().invoke(main, ["epi-check", "--state", "gallery:example2", "--measure", "negativity"])
    assert res.exit_code == (0 if holds else 1)


# Every real-valued parameter goes through tensor._real: float() alone would
# convert "0.5" and True, and a numpy complex with only a warning.
REAL_PARAMETERS = {
    "qconcurrence q": ep.q_concurrence_kind,
    "alpha": lambda v: ep.epi_residuals([0.5, 0.25], v, allow_unproven=True),
    "indicator alpha": lambda v: ep.indicator_delta(ep.named_state("w(3)"), v),
    "alpha grid entry": lambda v: ep.alpha_sweep([0.5, 0.25], [v], allow_unproven=True),
    "Schatten p": lambda v: ep.schatten_norm(np.diag([3.0, 4.0]), v),
    "power side a": lambda v: ep.power_inequality_holds(v, 0.5, 0.5, 0.5),
    "power side b": lambda v: ep.power_inequality_holds(0.5, v, 0.5, 0.5),
    "power side c": lambda v: ep.power_inequality_holds(0.5, 0.5, v, 0.5),
    "Acin l0": lambda v: ep.AcinParams(v, 0, 0, 0, 0),
    "Acin theta": lambda v: ep.AcinParams(1, 0, 0, 0, 0, theta=v),
    "acin_params theta": lambda v: ep.acin_params([1, 1, 1, 1, 1], v),
    "biseparability tolerance": lambda v: ep.acin_is_biseparable(ep.acin_params([1, 0, 1, 0, 0]), v),
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

    # q = inf printed "qconcurrence(q=inf)"; a NaN tolerance called no cut biseparable
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_rejected(self, entry, bad):
        if entry is REAL_PARAMETERS["Schatten p"] and bad == math.inf:
            assert entry(bad) == 4.0  # p = inf alone is in range: the largest singular value
        else:
            with pytest.raises(ep.InputError, match="expected a real"):
                entry(bad)


# Every whole-number parameter goes through tensor._whole: int() alone would
# read True as 1, so an audit of True trials ran one.
P22 = ep.DimensionProfile((2, 2))
WHOLE_PARAMETERS = {
    "seed": lambda v: ep.sample_state(P22, "haar", v, 0),
    "trial": lambda v: ep.sample_state(P22, "haar", 0, v),
    "trial count": lambda v: ep.audit_random(P22, None, ep.GEM, 1.0, v, 0),
    "rank": lambda v: ep.random_density(P22, v, seed=0),
    "party count": ep.Partition.singletons,
    "GHZ qubit count": ep.ghz_state,
    "W qubit count": ep.w_state,
    "designated block": lambda v: ep.alpha_sweep([0.5, 0.25], [0.5], block=v),
    "label entry": lambda v: ep.flat_index((v, 0), P22),
    "local dimension": lambda v: ep.DimensionProfile((v, 2)),
    "subsystem index": lambda v: P22.block_indices((v,)),
}


@pytest.mark.parametrize("entry", WHOLE_PARAMETERS.values(), ids=list(WHOLE_PARAMETERS))
@pytest.mark.parametrize("bad", [True, np.True_, False], ids=repr)
def test_bool_is_not_a_whole_number(entry, bad):
    with pytest.raises(ep.InputError, match="whole number"):
        entry(bad)


# Every measure, sampler and gallery name goes through tensor._choice:
# named_state(None) raised a bare AttributeError from None.strip.
NAMED_LOOKUPS = {
    "measure": ep.MeasureKind,
    "sampler": lambda v: ep.sample_state(P22, v, 0, 0),
    "gallery state": ep.named_state,
}


@pytest.mark.parametrize("what, entry", NAMED_LOOKUPS.items(), ids=list(NAMED_LOOKUPS))
@pytest.mark.parametrize("bad", [["x"], {"x": 1}, None, 3], ids=repr)
def test_name_that_is_not_a_table_key_is_unknown(what, entry, bad):
    with pytest.raises(ep.InputError, match=f"unknown {what} "):
        entry(bad)


def _state_file_amplitudes(v):
    """`entpoly measure` on a state file with amplitude pairs [v, v]; exit 2 naming the file raises InputError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "state.json")
        Path(path).write_text(json.dumps({"dims": [2], "amplitudes": [v, v]}))
        res = CliRunner().invoke(main, ["measure", "--state", path, "--measure", "gem"])
    if res.exit_code == 2 and path in res.stderr:
        raise ep.InputError(res.stderr)
    return res


# Every array parameter goes through tensor._array: np.asarray(x, dtype) alone
# parsed ["1", "0"] as numbers and read [True, False] as 1 and 0.  Each entry
# builds its site's input from a 2-entry list v.
ARRAY_PARAMETERS = {
    "ket amplitudes": lambda v: ep.Ket(ep.DimensionProfile((2,)), v),
    "density matrix": lambda v: ep.DensityOp(ep.DimensionProfile((2,)), [v, v]),
    "Schatten norm matrix": lambda v: ep.schatten_norm([v, v], 1),
    "epi_residuals values": lambda v: ep.epi_residuals(v, 0.5),
    "alpha_sweep values": lambda v: ep.alpha_sweep(v, [0.5]),
    "acin_params coefficients": lambda v: ep.acin_params((v * 3)[:5]),
    "GWSpec coefficients": lambda v: ep.GWSpec([v]),
    "gw_spec coefficients": lambda v: ep.gw_spec([v]),
    "purification spectrum a": lambda v: ep.ProductPurificationSpec(v, [0.5, 0.5]),
    "purification spectrum b": lambda v: ep.ProductPurificationSpec([0.5, 0.5], v),
    "state file amplitudes": _state_file_amplitudes,
}
# The real arrays; the state file is real too, but JSON holds no complex number.
REAL_ARRAYS = [
    "epi_residuals values", "alpha_sweep values", "acin_params coefficients",
    "purification spectrum a", "purification spectrum b",
]


@pytest.mark.parametrize("build", ARRAY_PARAMETERS.values(), ids=list(ARRAY_PARAMETERS))
class TestArrayParameters:
    @pytest.mark.parametrize("bad", [["1", "0"], [True, False], [None, 1]], ids=repr)
    def test_non_numbers_rejected(self, build, bad):
        with pytest.raises(ep.InputError, match="must be (real )?numbers"):
            build(bad)

    def test_ragged_rejected(self, build):
        with pytest.raises(ep.InputError, match="rectangular"):
            build([[1, 0], [0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_rejected(self, build, bad):
        with pytest.raises(ep.InputError, match="finite"):
            build([bad, 0])


@pytest.mark.parametrize("name", REAL_ARRAYS)
def test_complex_entries_rejected_in_a_real_array(name):
    with pytest.raises(ep.InputError, match="must be real numbers"):
        ARRAY_PARAMETERS[name]([1j, 0])


@pytest.mark.parametrize("bad", [[1, 1, 1, 1], [1] * 6, [[1] * 5], 1.0], ids=repr)
def test_acin_params_needs_five_coefficients(bad):
    # a 4-vector raised a bare TypeError for the missing l4, a 6-vector one for theta given twice
    with pytest.raises(ep.InputError, match="5-vector"):
        ep.acin_params(bad)


@pytest.mark.parametrize("bad", [np.stack([np.eye(3)] * 3), np.array([3.0, 4.0])], ids=["stack", "vector"])
def test_schatten_norm_needs_one_matrix(bad):
    # three stacked identities gave 6.0, and a vector raised LinAlgError
    with pytest.raises(ep.InputError, match="needs a matrix"):
        ep.schatten_norm(bad, 1)
