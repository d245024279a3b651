"""Pure-state measures, the Wootters formula, and their cross-identities."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import entpoly as ep
from entpoly.measures import PURITY_DEFICIT_FLOOR
from entpoly.tensor import reduced_spectra
from helpers import apply_local_unitaries, dense_negativity, haar_unitary, random_unit_vector


def maximally_entangled(d):
    amp = np.zeros(d * d, dtype=complex)
    for i in range(d):
        amp[i * d + i] = 1.0 / math.sqrt(d)
    return ep.Ket(ep.DimensionProfile((d, d)), amp)


def product_ket(dims, seed):
    rng = np.random.default_rng(seed)
    amp = np.array([1.0], dtype=complex)
    for d in dims:
        amp = np.kron(amp, random_unit_vector(d, rng))
    return ep.Ket(ep.DimensionProfile(dims), amp)


def scalar_measure(lam, kind):
    """Reference: each measure's formula as scalar code on one 1-D spectrum."""
    if kind.name == "gem":
        return max(0.0, 1.0 - float(lam[0]))
    if kind.name == "negativity":
        return max(0.0, (float(np.sum(np.sqrt(lam))) ** 2 - 1.0) / 2.0)
    deficit = 1.0 - float(np.sum(lam ** (2 if kind.q is None else kind.q)))
    if deficit <= PURITY_DEFICIT_FLOOR:
        return 0.0
    return float(np.sqrt(2.0 * deficit)) if kind.name == "concurrence" else deficit


ALL_CUT_MEASURES = [
    ep.GEM,
    ep.NEGATIVITY,
    ep.CONCURRENCE,
    ep.q_concurrence_kind(2),
    ep.q_concurrence_kind(3),
]


class TestMeasureKind:
    def test_parse(self):
        assert ep.MeasureKind("gem") == ep.GEM
        assert ep.MeasureKind("qconcurrence", 3).q == 3.0
        assert ep.MeasureKind("qconcurrence").q == 2.0

    def test_q_validation(self):
        with pytest.raises(ep.InputError):
            ep.MeasureKind("qconcurrence", 0.5)
        with pytest.raises(ep.InputError):
            ep.MeasureKind("qconcurrence", math.nan)
        # 1 - Tr rho^1 = 0 on every state, so q = 1 would pass every audit unchecked
        for one in (1, 1.0, np.float64(1)):
            with pytest.raises(ep.InputError, match=r"real q in \(1, inf\), got 1\.0"):
                ep.MeasureKind("qconcurrence", one)
            with pytest.raises(ep.InputError, match=r"real q in \(1, inf\)"):
                ep.q_concurrence_kind(one)
        assert ep.MeasureKind("qconcurrence", np.nextafter(1.0, 2.0)).q > 1.0
        with pytest.raises(ep.InputError):
            ep.MeasureKind("gem", 2.0)
        with pytest.raises(ep.InputError, match="takes no q"):
            ep.MeasureKind("gem", 3)
        with pytest.raises(ep.InputError):
            ep.MeasureKind("entropy")

    @pytest.mark.parametrize("bad", [["gem"], {"gem": 1}, None, 3])
    def test_name_that_is_not_a_string_rejected(self, bad):
        with pytest.raises(ep.InputError, match="unknown measure"):
            ep.MeasureKind(bad)

    @pytest.mark.parametrize("bad", ["x", 1j, [2], "3", True, np.True_])
    def test_q_that_is_not_a_real_number_rejected(self, bad):
        # float() raises a bare ValueError or TypeError on some of these and converts the rest
        with pytest.raises(ep.InputError, match="real q"):
            ep.MeasureKind("qconcurrence", bad)

    def test_one_list_of_names(self):
        from entpoly.measures import SPECTRUM_MEASURES
        from entpoly.cli import main

        for name in SPECTRUM_MEASURES:
            assert ep.MeasureKind(name).name == name
        for command in ("measure", "epi-check", "sweep", "audit"):
            option = next(p for p in main.commands[command].params if p.name == "measure")
            assert list(option.type.choices) == list(SPECTRUM_MEASURES)


class TestGem:
    def test_product_state(self):
        assert ep.measure_value(product_ket((2, 3), 0), (1,), ep.GEM) < 1e-12

    def test_bell(self):
        assert abs(ep.measure_value(ep.named_state("bell"), (1,), ep.GEM) - 0.5) < 1e-12

    def test_example1_values(self):
        psi = ep.named_state("example1")
        g = [ep.measure_value(psi, (i,), ep.GEM) for i in (1, 2, 3)]
        assert_allclose(g, [16 / 25, 6 / 25, 11 / 25], atol=1e-12)

    def test_upper_bound(self):
        for seed in range(5):
            psi = ep.haar_random_ket(ep.DimensionProfile((2, 3, 4)), seed)
            for block in [(1,), (2,), (3,), (1, 2)]:
                dims = psi.profile.dims
                d_min = min(math.prod(dims[i - 1] for i in b) for b in (block, psi.profile.complement(block)))
                val = ep.measure_value(psi, block, ep.GEM)
                assert 0.0 <= val <= 1.0 - 1.0 / d_min + 1e-12

    def test_invalid_block(self):
        with pytest.raises(ep.InputError):
            ep.measure_value(ep.named_state("bell"), (1, 2), ep.GEM)


class TestNegativity:
    def test_example2_cuts(self):
        psi = ep.named_state("example2")
        vals = [ep.negativity(psi, (i,)) for i in (1, 2, 3)]
        assert_allclose(vals, [4.0, 1.0, 1.0], atol=1e-9)

    def test_product(self):
        assert ep.negativity(product_ket((3, 3), 1), (1,)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled(self, d):
        assert abs(ep.negativity(maximally_entangled(d), (1,)) - (d - 1) / 2) < 1e-10

    def test_density_input(self):
        rho = ep.density_of(ep.named_state("bell"))
        assert abs(ep.negativity(rho, (1,)) - 0.5) < 1e-12
        mixed = ep.DensityOp(ep.DimensionProfile((2, 2)), np.eye(4) / 4)
        assert ep.negativity(mixed, (1,)) < 1e-12


def dense_reference(psi, block):
    return dense_negativity(psi.amplitudes, psi.profile.dims, [i - 1 for i in block])


def gw_ket(n, d, seed):
    rng = np.random.default_rng([n, d, seed])
    return ep.gw_state(ep.gw_spec(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))))


class TestSupportCompressedNegativity:
    """A ket's trace norm runs on the block its support touches; full support stays dense."""

    @pytest.mark.parametrize(
        "dims, block",
        [
            ((2, 2, 2), (1,)),
            ((2, 2, 2), (2,)),
            ((2, 2, 2), (1, 3)),
            ((3, 3, 3), (3,)),
            ((3, 3, 3), (1, 2)),
            ((2,) * 7, (2, 5, 7)),
            ((2,) * 10, (3, 4, 9)),
            ((4,) * 5, (1,)),
        ],
    )
    def test_full_support_is_bit_identical_to_the_dense_path(self, dims, block):
        psi = ep.haar_random_ket(ep.DimensionProfile(dims), 17)
        assert np.all(psi.amplitudes != 0)
        assert ep.negativity(psi, block) == dense_reference(psi, block)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gw_kets_match_the_dense_path(self, n, d):
        psi = gw_ket(n, d, 0)
        for block in [(1,), (n,), (2, n)]:
            assert abs(ep.negativity(psi, block) - dense_reference(psi, block)) <= 1e-14

    @pytest.mark.parametrize(
        "name", ["example1", "example2", "example3", "bell", "ghz(3)", "ghz(5)", "w(3)", "w(5)"]
    )
    def test_gallery_kets_match_the_dense_path(self, name):
        psi = ep.named_state(name)
        for i in range(1, psi.profile.n):
            for block in [(i,), tuple(range(1, i + 1))]:
                assert abs(ep.negativity(psi, block) - dense_reference(psi, block)) <= 1e-14

    @pytest.mark.parametrize(
        "dims, label", [((2, 3), (1, 2)), ((3, 3, 3), (0, 2, 1)), ((2,) * 6, (1, 0, 1, 1, 0, 0))]
    )
    def test_basis_kets_have_zero_negativity(self, dims, label):
        psi = ep.basis_ket(ep.DimensionProfile(dims), label)
        for block in [(1,), (len(dims),)]:
            assert ep.negativity(psi, block) == 0.0 == dense_reference(psi, block)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (2, 2, 3, 2)])
    @pytest.mark.parametrize("basis_side", ["block", "rest"])
    def test_product_across_the_cut_is_exactly_zero(self, dims, basis_side):
        # one side's factor is a basis state, the other a generic full-support vector
        rng = np.random.default_rng(len(dims))
        block = (1,)
        d_block, d_rest = dims[0], math.prod(dims[1:])
        basis = np.zeros(d_block if basis_side == "block" else d_rest, dtype=complex)
        basis[-1] = 1.0
        generic = random_unit_vector(d_rest if basis_side == "block" else d_block, rng)
        amp = np.kron(basis, generic) if basis_side == "block" else np.kron(generic, basis)
        psi = ep.Ket(ep.DimensionProfile(dims), amp)
        assert ep.negativity(psi, block) == 0.0
        assert ep.negativity(psi, psi.profile.complement(block)) == 0.0

    def test_sparse_ket_never_builds_the_dense_matrix(self):
        # the dense D x D path on this D = 1024 ket peaks at 32 MiB (two 16 MiB matrices)
        psi = gw_ket(5, 3, 1)
        tracemalloc.start()
        try:
            ep.negativity(psi, (1, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


HAAR_232 = ep.haar_random_ket(ep.DimensionProfile((2, 3, 2)), 41)


@pytest.mark.parametrize("state", [HAAR_232, ep.density_of(HAAR_232)], ids=["ket", "density"])
@pytest.mark.parametrize("block", [(), (1, 2, 3), (1, 1), (4,), (2.5,), (1,), (2,), (3,), (1, 3), (2, 3)])
@pytest.mark.parametrize("as_generator", [False, True])
def test_negativity_takes_the_cuts_measure_value_takes(state, block, as_generator):
    def cut():  # a fresh generator per call: each path may read it only once
        return (i for i in block) if as_generator else block

    try:
        schmidt = ep.measure_value(HAAR_232, cut(), ep.NEGATIVITY)
    except ep.InputError:
        with pytest.raises(ep.InputError):
            ep.negativity(state, cut())
        return
    assert abs(ep.negativity(state, cut()) - schmidt) < 1e-9


class TestSchmidtNegativity:
    def test_bell(self):
        assert abs(ep.negativity_pure_schmidt(ep.named_state("bell"), (1,)) - 0.5) < 1e-12

    def test_example3_first_cut(self):
        psi = ep.named_state("example3")
        assert abs(ep.negativity_pure_schmidt(psi, (1,)) - 0.5) < 1e-9

    def test_example1_a_cut(self):
        # spectrum (9, 8, 8)/25 gives ((3 + 4 sqrt 2)^2/25 - 1)/2 = (8 + 12 sqrt 2)/25
        psi = ep.named_state("example1")
        expected = (8 + 12 * math.sqrt(2)) / 25
        assert abs(ep.negativity_pure_schmidt(psi, (1,)) - expected) < 1e-12
        assert abs(ep.negativity(psi, (1,)) - expected) < 1e-9


class TestConcurrence:
    def test_bell(self):
        assert abs(ep.measure_value(ep.named_state("bell"), (1,), ep.CONCURRENCE) - 1.0) < 1e-12

    def test_product(self):
        assert ep.measure_value(product_ket((2, 2, 2), 2), (2,), ep.CONCURRENCE) < 1e-9

    def test_maximally_entangled_qutrits(self):
        val = ep.measure_value(maximally_entangled(3), (1,), ep.CONCURRENCE)
        assert abs(val - math.sqrt(4 / 3)) < 1e-12


class TestQConcurrence:
    def test_product(self):
        for q in (1.1, 2.0, 3.5):  # q = 1 is rejected: TestMeasureKind.test_q_validation
            assert ep.measure_value(product_ket((2, 3), 3), (1,), ep.q_concurrence_kind(q)) < 1e-12

    def test_bell_q2(self):
        assert abs(ep.measure_value(ep.named_state("bell"), (1,), ep.q_concurrence_kind(2)) - 0.5) < 1e-12

    def test_bell_q3(self):
        assert abs(ep.measure_value(ep.named_state("bell"), (1,), ep.q_concurrence_kind(3)) - 0.75) < 1e-12

    def test_q_below_one_rejected(self):
        with pytest.raises(ep.InputError):
            ep.measure_value(ep.named_state("bell"), (1,), ep.q_concurrence_kind(0.9))

    def test_relation_to_concurrence(self):
        for seed in range(10):
            psi = ep.haar_random_ket(ep.DimensionProfile((3, 4)), seed)
            c = ep.measure_value(psi, (1,), ep.CONCURRENCE)
            c2 = ep.measure_value(psi, (1,), ep.q_concurrence_kind(2))
            assert abs(c - math.sqrt(2 * c2)) < 1e-9


class TestWootters:
    def test_product_basis_state(self):
        rho = ep.density_of(ep.basis_ket(ep.DimensionProfile((2, 2)), (0, 0)))
        assert ep.wootters_concurrence(rho) < 1e-12

    def test_bell_projector(self):
        rho = ep.density_of(ep.named_state("bell"))
        assert abs(ep.wootters_concurrence(rho) - 1.0) < 1e-10

    def test_matches_pure_concurrence(self):
        for t in range(100):
            psi = ep.haar_random_ket(ep.DimensionProfile((2, 2)), np.random.SeedSequence([41, t]))
            w = ep.wootters_concurrence(ep.density_of(psi))
            c = ep.measure_value(psi, (1,), ep.CONCURRENCE)
            assert abs(w - c) < 1e-8

    def test_werner_states(self):
        # independent analytic oracle: C(Werner p) = max(0, (3p - 1)/2)
        psi_minus = np.array([0, 1, -1, 0]) / math.sqrt(2)
        bell = np.outer(psi_minus, psi_minus)
        prof = ep.DimensionProfile((2, 2))
        for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
            rho = ep.DensityOp(prof, p * bell + (1 - p) * np.eye(4) / 4)
            expected = max(0.0, (3 * p - 1) / 2)
            assert abs(ep.wootters_concurrence(rho) - expected) < 1e-10

    def test_wrong_profile_rejected(self):
        rho = ep.DensityOp(ep.DimensionProfile((2, 3)), np.eye(6) / 6)
        with pytest.raises(ep.InputError):
            ep.wootters_concurrence(rho)


class TestCrossCutProperties:
    def test_cut_symmetry(self):
        for seed, dims in [(0, (2, 2, 2)), (1, (2, 3, 4))]:
            psi = ep.haar_random_ket(ep.DimensionProfile(dims), seed)
            for kind in ALL_CUT_MEASURES:
                for block in [(1,), (2,), (1, 3)]:
                    comp = psi.profile.complement(block)
                    a = ep.measure_value(psi, block, kind)
                    b = ep.measure_value(psi, comp, kind)
                    assert abs(a - b) < 1e-10, (kind.label, block)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(55)
        dims = (2, 3, 2)
        prof = ep.DimensionProfile(dims)
        for seed in range(5):
            psi = ep.haar_random_ket(prof, seed)
            us = [haar_unitary(d, rng) for d in dims]
            rot = ep.Ket(prof, apply_local_unitaries(psi.amplitudes, dims, us))
            for kind in ALL_CUT_MEASURES:
                for block in [(1,), (3,), (1, 2)]:
                    a = ep.measure_value(psi, block, kind)
                    b = ep.measure_value(rot, block, kind)
                    assert abs(a - b) < 1e-9, (kind.label, block)

    def test_zero_iff_product(self):
        # product states: everything vanishes
        for seed in range(20):
            psi = product_ket((2, 2), seed)
            for kind in ALL_CUT_MEASURES:
                assert ep.measure_value(psi, (1,), kind) < 1e-9
        # Haar two-qubit states: entangled with overwhelming probability;
        # flag near-product draws instead of failing on the measure-zero event
        flagged = []
        for t in range(200):
            psi = ep.haar_random_ket(ep.DimensionProfile((2, 2)), np.random.SeedSequence([91, t]))
            smallest = min(ep.measure_value(psi, (1,), kind) for kind in ALL_CUT_MEASURES)
            if smallest <= 1e-6:
                flagged.append(t)
        if flagged:
            print(f"note: {len(flagged)} Haar draws were nearly product: trials {flagged}")
        assert len(flagged) <= 2

    def test_stacked_spectra_match_measure_value_and_scalar_formula_bitwise(self):
        kinds = ALL_CUT_MEASURES + [ep.q_concurrence_kind(1.7)]
        for dims in [(2, 2, 2), (3, 3, 3), (2, 3, 4)]:
            prof = ep.DimensionProfile(dims)
            kets = [ep.haar_random_ket(prof, np.random.SeedSequence([17, t])) for t in range(25)]
            kets.append(product_ket(dims, 3))  # exercises the purity-deficit floor
            stack = np.stack([psi.amplitudes for psi in kets])
            for block in [(1,), (2,), (1, 3)]:
                lam = reduced_spectra(prof, stack, block)
                for kind in kinds:
                    stacked = kind.of_spectra(lam)
                    single = np.array([ep.measure_value(psi, block, kind) for psi in kets])
                    scalar = np.array([scalar_measure(row, kind) for row in lam])
                    assert np.array_equal(stacked, single), (kind.label, dims, block)
                    assert np.array_equal(stacked, scalar), (kind.label, dims, block)

    def test_negativity_paths_agree(self):
        for seed, dims in [(3, (2, 3)), (4, (3, 3)), (5, (2, 2, 2))]:
            psi = ep.haar_random_ket(ep.DimensionProfile(dims), seed)
            n = len(dims)
            for i in range(1, n + 1):
                a = ep.negativity(psi, (i,))
                b = ep.negativity_pure_schmidt(psi, (i,))
                assert abs(a - b) < 1e-9
