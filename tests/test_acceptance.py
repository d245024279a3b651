"""Acceptance gate: the full claim-by-claim verification suite.

One test per criterion; each prints a [PASS]/[FAIL] line (visible with
pytest -s).  Every randomized criterion runs from a fixed seed.
"""

import math
import time

import numpy as np
import pytest

import entpoly as ep
from helpers import brute_reduced_spectrum

ALPHA_GRID_99 = [float(a) for a in np.linspace(0.01, 0.99, 99)]
AUDIT_PROFILES = [(2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2)]
AUDIT_ALPHAS = [0.25, 0.5, 0.75, 1.0]


def _report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _audit_measure_sweep(kinds, seed):
    """Audit measures over every profile, partition (2..4 blocks), alpha: one plan per profile.

    Returns kind -> [violations, worst residual, audits].
    """
    totals = {kind: [0, math.inf, 0] for kind in kinds}
    for dims in AUDIT_PROFILES:
        prof = ep.DimensionProfile(dims)
        parts = list(ep.iter_partitions(prof.n, 2, 4))
        for summary in ep.audit_plan(prof, parts, kinds, AUDIT_ALPHAS, 1000, seed=seed):
            total = totals[summary.measure]
            total[0] += summary.violations
            total[1] = min(total[1], summary.worst_residual)
            total[2] += 1
    return totals


def test_criterion_1_example2_exactness():
    t0 = time.perf_counter()
    psi = ep.named_state("example2")
    part = ep.Partition.singletons(3)
    values = ep.one_to_rest_values(psi, part, ep.NEGATIVITY)
    tracenorm = [ep.negativity(psi, (i,)) for i in (1, 2, 3)]
    report = ep.epi_report(psi, part, ep.NEGATIVITY, 1.0)
    elapsed = time.perf_counter() - t0
    ok = (
        np.allclose(values, [4.0, 1.0, 1.0], atol=1e-9)
        and np.allclose(tracenorm, [4.0, 1.0, 1.0], atol=1e-9)
        and abs(report.residuals[0] + 2.0) < 1e-9
        and report.holds is False
        and elapsed < 1.0
    )
    _report(1, ok, f"negativities 4,1,1; residual at A = -2; violation reported ({elapsed:.3f}s)")


def test_criterion_2_example3_exactness():
    t0 = time.perf_counter()
    psi = ep.named_state("example3")
    part = ep.Partition.parse("1|2,3|4")
    values = ep.one_to_rest_values(psi, part, ep.NEGATIVITY)
    expected = [0.5, math.sqrt(0.2419), math.sqrt(0.0819)]
    points = ep.alpha_sweep(values, ALPHA_GRID_99)
    elapsed = time.perf_counter() - t0
    ok = (
        np.allclose(values, expected, atol=1e-9)
        and len(points) == 99
        and all(g > 0 for _, g in points)
        and elapsed < 1.0
    )
    _report(2, ok, f"negativities (0.5, sqrt 0.2419, sqrt 0.0819); h > 0 on 99 grid points ({elapsed:.3f}s)")


def test_criterion_3_example1_spectra_and_sweeps():
    psi = ep.named_state("example1")
    tops = [float(ep.reduced_spectrum(psi, (i,))[0]) for i in (1, 2, 3)]
    ok_tops = np.allclose(tops, [9 / 25, 19 / 25, 14 / 25], atol=1e-12)
    ok_oracle = all(
        np.allclose(
            ep.reduced_spectrum(psi, (i + 1,)),
            brute_reduced_spectrum(psi.amplitudes, (3, 3, 3), [i]),
            atol=1e-12,
        )
        for i in range(3)
    )
    printed = ep.alpha_sweep(ep.EXAMPLE1_PAPER_VALUES, ALPHA_GRID_99)
    ok_printed = all(g > 0 for _, g in printed)
    gem_values = [16 / 25, 6 / 25, 11 / 25]
    ok_gem = all(
        float(ep.epi_residuals(gem_values, alpha).min()) >= -1e-9 for alpha in ALPHA_GRID_99
    )
    _report(
        3,
        ok_tops and ok_oracle and ok_printed and ok_gem,
        "lambda_max = (9, 19, 14)/25; spectra match the brute-force oracle; "
        "printed-triple curve > 0; corrected values satisfy the alpha-EPI",
    )


def test_criterion_4_gem_epi_audit():
    t0 = time.perf_counter()
    violations, worst, audits = _audit_measure_sweep([ep.GEM], seed=20_240)[ep.GEM]
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    _report(
        4,
        ok,
        f"gem: 0 violations over {audits} audits x 1000 Haar trials "
        f"(worst residual {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_5_concurrence_and_qconcurrence_audits():
    details = []
    ok = True
    kinds = [ep.CONCURRENCE, ep.q_concurrence_kind(2), ep.q_concurrence_kind(3)]
    for kind, (violations, worst, _) in _audit_measure_sweep(kinds, seed=20_241).items():
        ok = ok and violations == 0
        details.append(f"{kind.label}: {violations} violations (worst {worst:.2e})")
    _report(5, ok, "; ".join(details))


def test_criterion_6_purification_family():
    rng = np.random.default_rng(20_242)
    part = ep.Partition.singletons(3)
    all_violate = True
    gap_ok = True
    for _ in range(200):
        da, db = rng.integers(2, 5, size=2)
        spec = ep.ProductPurificationSpec(rng.dirichlet(np.ones(da)), rng.dirichlet(np.ones(db)))
        psi = ep.product_purification(spec)
        report = ep.epi_report(psi, part, ep.NEGATIVITY, 1.0)
        all_violate = all_violate and not report.holds
        numeric_gap = report.values[2] - report.values[0] - report.values[1]
        gap_ok = gap_ok and abs(numeric_gap - ep.negativity_gap_closed(spec)) < 1e-9
    _report(6, all_violate and gap_ok, "200 rank>=2 purifications all violate; gaps match the closed form")


def test_criterion_7_gw_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_243)
    match_ok = True
    epi_ok = True
    for _ in range(500):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(1, 4))
        coeffs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        spec = ep.gw_spec(coeffs)
        while True:
            labels = rng.integers(0, 3, size=n)
            if len(set(labels.tolist())) == 3:
                break
        blocks = [[], [], []]
        for party, lab in enumerate(labels, start=1):
            blocks[lab].append(party)
        part = ep.Partition(tuple(tuple(b) for b in blocks))
        closed = ep.gw_negativity_closed(spec, part)
        psi = ep.gw_state(spec)
        numeric = [ep.negativity(psi, block) for block in part.blocks]
        match_ok = match_ok and np.allclose(closed, numeric, atol=1e-9)
        for alpha in (0.25, 0.5, 1.0):
            epi_ok = epi_ok and float(ep.epi_residuals(closed, alpha).min()) >= -1e-9
    elapsed = time.perf_counter() - t0
    _report(
        7,
        match_ok and epi_ok,
        f"500 GW specs (n<=5, d<=3): closed negativities match trace-norm values; "
        f"alpha-EPI residuals clear -1e-9 ({elapsed:.1f}s)",
    )


def test_criterion_8_acin_indicator_both_directions():
    rng = np.random.default_rng(20_244)
    alphas = (0.1, 0.5, 0.9)

    def delta_small(params):
        psi = ep.acin_state(params)
        return all(abs(ep.indicator_delta(psi, a)[0]) < 1e-7 for a in alphas)

    bisep_ok = True
    for _ in range(100):  # l0 = 0 family
        ls = np.abs(rng.standard_normal(5))
        ls[0] = 0.0
        bisep_ok = bisep_ok and delta_small(ep.acin_params(ls, rng.uniform(0, math.pi)))
    bisep_ok = bisep_ok and delta_small(ep.AcinParams(1, 0, 0, 0, 0))  # l0 = 1
    for _ in range(100):  # l3 = l4 = 0 family
        ls = np.abs(rng.standard_normal(5))
        ls[3] = ls[4] = 0.0
        bisep_ok = bisep_ok and delta_small(ep.acin_params(ls, rng.uniform(0, math.pi)))

    genuine_ok = True
    spectra_ok = True
    draws = 0
    while draws < 1000:
        params = ep.acin_params(np.abs(rng.standard_normal(5)), rng.uniform(0, math.pi))
        if ep.acin_is_biseparable(params, tol=1e-6):
            continue
        draws += 1
        psi = ep.acin_state(params)
        genuine_ok = genuine_ok and all(ep.indicator_delta(psi, a)[0] > 1e-7 for a in alphas)
        closed = ep.acin_schmidt_spectra(params)
        for cut in range(3):
            spectra_ok = spectra_ok and np.allclose(
                closed[cut], ep.reduced_spectrum(psi, (cut + 1,)), atol=1e-10
            )
    _report(
        8,
        bisep_ok and genuine_ok and spectra_ok,
        "biseparable families have delta < 1e-7; 1000 genuine draws have delta > 1e-7; "
        "closed-form pairs match numeric spectra",
    )


def test_criterion_9_marginal_norm_subadditivity():
    rng = np.random.default_rng(20_245)
    ok = True
    worst = math.inf
    for dims in ((2, 3), (3, 3)):
        prof = ep.DimensionProfile(dims)
        D = prof.total_dim
        for i in range(500):
            rank = int(rng.integers(1, D + 1))
            rho = ep.random_density(prof, rank, seed=np.random.SeedSequence([20_245, dims[0], i]))
            tr1 = ep.partial_trace(rho, (2,)).matrix  # trace out subsystem 1
            tr2 = ep.partial_trace(rho, (1,)).matrix
            for q in (1.5, 2.0, 3.0, 10.0):
                margin = (
                    1.0
                    + ep.schatten_norm(rho.matrix, q)
                    - ep.schatten_norm(tr1, q)
                    - ep.schatten_norm(tr2, q)
                )
                worst = min(worst, margin)
                ok = ok and margin >= -1e-9
    _report(9, ok, f"1 + |rho|_q >= |Tr1 rho|_q + |Tr2 rho|_q on 1000 densities (worst margin {worst:.2e})")


def test_criterion_10_cross_measure_identities():
    paths_ok = True
    relation_ok = True
    for t in range(20):
        for dims in ((2, 3), (3, 3), (2, 2, 2)):
            psi = ep.haar_random_ket(ep.DimensionProfile(dims), np.random.SeedSequence([20_246, t]))
            n = len(dims)
            for i in range(1, n + 1):
                a = ep.negativity(psi, (i,))
                b = ep.negativity_pure_schmidt(psi, (i,))
                paths_ok = paths_ok and abs(a - b) < 1e-9
                c = ep.measure_value(psi, (i,), ep.CONCURRENCE)
                c2 = ep.measure_value(psi, (i,), ep.q_concurrence_kind(2))
                relation_ok = relation_ok and abs(c - math.sqrt(2 * c2)) < 1e-9
    wootters_ok = True
    for t in range(100):
        psi = ep.haar_random_ket(ep.DimensionProfile((2, 2)), np.random.SeedSequence([20_247, t]))
        w = ep.wootters_concurrence(ep.density_of(psi))
        c = ep.measure_value(psi, (1,), ep.CONCURRENCE)
        wootters_ok = wootters_ok and abs(w - c) < 1e-8
    _report(
        10,
        paths_ok and relation_ok and wootters_ok,
        "negativity paths agree (1e-9); C = sqrt(2 C_2) (1e-9); Wootters matches pure (1e-8)",
    )


def test_criterion_11_power_inequality_bulk():
    rng = np.random.default_rng(20_248)
    ok = True
    for _ in range(100_000):
        a, b = rng.uniform(1e-12, 1.0, size=2)
        c = max(rng.uniform(0.0, min(1.0, a + b)), 1e-12)
        alpha = rng.uniform(1e-9, 1.0)
        if not ep.power_inequality_holds(a, b, c, alpha):
            ok = False
            break
    _report(11, ok, "10^5 admissible (a, b, c, alpha) quadruples satisfy a^al + b^al >= c^al")
