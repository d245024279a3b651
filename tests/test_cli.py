"""End-to-end CLI behaviour: parsing, output formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import entpoly as ep
from entpoly.cli import MAX_GRID_STEPS, json_dumps, main, read_state_file, write_state_file


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestMeasureCommand:
    def test_example2_negativity(self, runner):
        res = run(runner, "measure", "--state", "gallery:example2",
                  "--partition", "1|2|3", "--measure", "negativity")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert np.allclose(payload["values"], [4.0, 1.0, 1.0], atol=1e-9)

    def test_bell_gem(self, runner):
        res = run(runner, "measure", "--state", "gallery:bell", "--measure", "gem")
        payload = json.loads(res.output)
        assert np.allclose(payload["values"], [0.5, 0.5], atol=1e-12)

    def test_overlapping_partition_exits_2(self, runner):
        res = run(runner, "measure", "--state", "gallery:example2",
                  "--partition", "1|1,2", "--measure", "gem")
        assert res.exit_code == 2

    def test_dimension_mismatch_exits_2(self, runner):
        res = run(runner, "measure", "--state", "gallery:bell",
                  "--partition", "1|2|3", "--measure", "gem")
        assert res.exit_code == 2
        # q belongs to qconcurrence only
        res = run(runner, "measure", "--state", "gallery:bell", "--measure", "gem", "--q", "3")
        assert res.exit_code == 2
        assert "takes no q" in res.stderr

    def test_unknown_gallery_state_exits_2(self, runner):
        res = run(runner, "measure", "--state", "gallery:example9", "--measure", "gem")
        assert res.exit_code == 2
        assert "example1" in res.stderr

    def test_oversized_state_exits_2(self, runner):
        res = run(runner, "measure", "--state", "gallery:ghz(40)", "--measure", "gem")
        assert res.exit_code == 2
        assert "MAX_TOTAL_DIM" in res.stderr

    @pytest.mark.parametrize("command", [["measure", "--state", "gallery:bell"], ["audit", "--dims", "2,2"]])
    def test_infinite_q_exits_2(self, runner, command):
        # printed "qconcurrence(q=inf)" with the values [1, 1] and exited 0
        res = run(runner, *command, "--measure", "qconcurrence", "--q", "inf")
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize("command", [
        ["measure", "--state", "gallery:bell"],
        ["epi-check", "--state", "gallery:example2", "--alpha", "1"],
        ["audit", "--dims", "2,2,2", "--trials", "3"],
    ])
    def test_q_one_exits_2(self, runner, command):
        # q = 1 is the zero measure 1 - Tr rho: it printed values [0, 0] and passed every check
        res = run(runner, *command, "--measure", "qconcurrence", "--q", "1")
        assert res.exit_code == 2
        assert "real q in (1, inf), got 1.0" in res.stderr
        assert res.stdout == ""

    def test_qconcurrence_label_prints_q_in_full(self, runner):
        # printed "qconcurrence(q=1)", the label of an order that exits 2
        res = run(runner, "measure", "--state", "gallery:bell", "--measure", "qconcurrence", "--q", "1.0000001")
        assert res.exit_code == 0
        assert json.loads(res.output)["measure"] == "qconcurrence(q=1.0000001)"
        res = run(runner, "measure", "--state", "gallery:bell", "--measure", "qconcurrence", "--q", "2")
        assert json.loads(res.output)["measure"] == "qconcurrence(q=2)"

    def test_csv_format(self, runner):
        res = run(runner, "measure", "--state", "gallery:example2",
                  "--partition", "1|2,3", "--measure", "negativity", "--format", "csv")
        lines = res.output.strip().splitlines()
        assert lines[0] == "block,value"
        assert lines[1].startswith("1,")
        assert lines[2].startswith('"2,3",')


class TestEpiCheckCommand:
    def test_example2_violation_exits_1(self, runner):
        res = run(runner, "epi-check", "--state", "gallery:example2",
                  "--measure", "negativity", "--alpha", "1")
        assert res.exit_code == 1
        payload = json.loads(res.output)
        assert payload["holds"] is False
        assert abs(payload["min_residual"] + 2.0) < 1e-9

    def test_example2_expected_violation_exits_0(self, runner):
        res = run(runner, "epi-check", "--state", "gallery:example2",
                  "--measure", "negativity", "--expect-violation")
        assert res.exit_code == 0

    def test_example3_holds(self, runner):
        res = run(runner, "epi-check", "--state", "gallery:example3",
                  "--partition", "1|2,3|4", "--measure", "negativity", "--alpha", "1")
        assert res.exit_code == 0
        assert json.loads(res.output)["holds"] is True

    def test_ghz_gem_alpha_half(self, runner):
        res = run(runner, "epi-check", "--state", "gallery:ghz(3)",
                  "--measure", "gem", "--alpha", "0.5")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert min(payload["residuals"]) > 0.5

    def test_alpha_above_one_needs_flag(self, runner):
        res = run(runner, "epi-check", "--state", "gallery:ghz(3)",
                  "--measure", "gem", "--alpha", "1.5")
        assert res.exit_code == 2
        res = run(runner, "epi-check", "--state", "gallery:ghz(3)",
                  "--measure", "gem", "--alpha", "1.5", "--allow-unproven-alpha")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["unproven_regime"] is True
        for bad in ("0", "nan"):
            res = run(runner, "epi-check", "--state", "gallery:ghz(3)", "--measure", "gem", "--alpha", bad)
            assert res.exit_code == 2, bad

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_2(self, runner, bad):
        # --tolerance is gone (the threshold is polygon.VIOLATION_TOL): still a usage error, with no verdict
        res = run(runner, "epi-check", "--state", "gallery:example2", "--measure", "negativity",
                  "--tolerance", bad)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "No such option" in res.stderr


class TestHugeAlpha:
    # each printed numpy overflow warnings and a verdict on "residuals": [nan, inf, inf] (not JSON);
    # epi-check exited 1 and sweep 0
    @pytest.mark.parametrize("args", [
        ["epi-check", "--state", "gallery:example2", "--measure", "negativity", "--alpha", "1e308"],
        ["sweep", "--values", "0.5,4,1", "--alpha-max", "1e308", "--steps", "3"],
        ["audit", "--dims", "2,2", "--sampler", "purification", "--measure", "negativity", "--trials", "3",
         "--alpha", "1e308"],
    ], ids=["epi-check", "sweep", "audit"])
    def test_overflowing_alpha_exits_2(self, runner, args):
        res = run(runner, *args, "--allow-unproven-alpha")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1].startswith("error: alpha = ")
        assert "overflows the powered measure values" in res.stderr


class TestSweepCommand:
    def test_example1_paper_values_at_one(self, runner):
        res = run(runner, "sweep", "--state", "gallery:example1-paper-values",
                  "--alpha-min", "1", "--alpha-max", "1", "--steps", "1")
        payload = json.loads(res.output)
        assert abs(payload["points"][0][1] - 0.16) < 1e-12
        assert payload["block"] == 2  # the largest printed value sits at cut B

    def test_example3_curve(self, runner):
        res = run(runner, "sweep", "--state", "gallery:example3",
                  "--partition", "1|2,3|4", "--measure", "negativity",
                  "--alpha-min", "0.01", "--alpha-max", "0.99", "--steps", "99")
        payload = json.loads(res.output)
        points = payload["points"]
        assert len(points) == 99
        assert all(g > 0 for _, g in points)

    def test_example3_alpha_one(self, runner):
        res = run(runner, "sweep", "--state", "gallery:example3",
                  "--partition", "1|2,3|4", "--measure", "negativity",
                  "--alpha-min", "1", "--alpha-max", "1", "--steps", "1")
        g = json.loads(res.output)["points"][0][1]
        assert abs(g - 0.27801) < 1e-5

    def test_explicit_values(self, runner):
        res = run(runner, "sweep", "--values", "0.36,0.76,0.56",
                  "--alpha-min", "0.01", "--alpha-max", "0.01", "--steps", "1")
        g = json.loads(res.output)["points"][0][1]
        assert g > 0.9

    def test_state_and_values_both_rejected(self, runner):
        res = run(runner, "sweep", "--state", "gallery:bell", "--values", "1,2")
        assert res.exit_code == 2
        res = run(runner, "sweep", "--values", "0.5,x")
        assert res.exit_code == 2
        assert "--values" in res.stderr
        # a one-value "polygon" exited 0 with negative residuals
        res = run(runner, "sweep", "--values", "0.5", "--steps", "2")
        assert res.exit_code == 2
        assert "at least 2 sides" in res.stderr

    @pytest.mark.parametrize("args, options", [
        (["--values", "0.5,0.5", "--partition", "1|2|3", "--q", "7"], "--partition, --q"),
        (["--state", "gallery:example1-paper-values", "--partition", "1|1"], "--partition"),
        (["--values", "0.5,0.5", "--measure", "gem"], "--measure"),
    ])
    def test_measure_options_need_a_measured_state(self, runner, args, options):
        # each option was ignored and the sweep exited 0
        res = run(runner, "sweep", *args, "--steps", "1")
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: {options}: ")

    def test_measured_state_defaults_to_negativity(self, runner):
        base = ["sweep", "--state", "gallery:example3", "--partition", "1|2,3|4", "--steps", "3"]
        res = run(runner, *base)
        assert res.exit_code == 0
        assert res.stdout == run(runner, *base, "--measure", "negativity").stdout

    def test_step_count_is_bounded(self, runner):
        # a million steps took 400 MB and 21 s to print 44 MB
        base = ["sweep", "--values", "0.5,0.5", "--format", "csv", "--steps"]
        assert run(runner, *base, str(MAX_GRID_STEPS)).exit_code == 0
        res = run(runner, *base, str(MAX_GRID_STEPS + 1))
        assert res.exit_code == 2
        assert f"grid step count must be a whole number in 1..{MAX_GRID_STEPS}" in res.stderr

    def test_alpha_max_needs_flag_on_one_step_grid(self, runner):
        base = ["sweep", "--values", "0.5,0.5", "--alpha-min", "0.5", "--steps", "1"]
        assert run(runner, *base, "--alpha-max", "2").exit_code == 2
        assert run(runner, *base, "--alpha-max", "2", "--allow-unproven-alpha").exit_code == 0
        for bad in ("nan", "inf"):
            res = run(runner, *base, "--alpha-max", bad, "--allow-unproven-alpha")
            assert res.exit_code == 2, bad

    @pytest.mark.parametrize("bad", ["-inf", "nan"])
    def test_non_finite_alpha_min_exits_2(self, runner, bad):
        # -inf made linspace warn (exit 3 under error::RuntimeWarning) and the error named a NaN grid point
        res = run(runner, "sweep", "--values", "0.5,0.5", "--alpha-min", bad)
        assert res.exit_code == 2
        [line] = res.stderr.splitlines()
        assert line.startswith("error:") and "--alpha-min" in line and line.endswith(f"got {bad}")

    @pytest.mark.parametrize("block", ["3", "0"])
    def test_block_out_of_range_is_named_1_based(self, runner, block):
        # named the 0-based block: "in 0..1, got 2" for --block 3
        res = run(runner, "sweep", "--values", "0.5,0.5", "--block", block)
        assert res.exit_code == 2
        assert res.stderr.rstrip().endswith(f"in 1..2, got {block}")

    def test_block_is_printed_as_given(self, runner):
        res = run(runner, "sweep", "--values", "0.5,0.25", "--block", "2", "--steps", "1")
        payload = json.loads(res.output)
        assert payload["block"] == 2
        assert payload["points"] == [[0.01, ep.alpha_sweep([0.5, 0.25], [0.01], block=1)[0][1]]]

    def test_csv(self, runner):
        res = run(runner, "sweep", "--values", "0.5,0.5",
                  "--alpha-min", "0.5", "--alpha-max", "1", "--steps", "2", "--format", "csv")
        lines = res.output.strip().splitlines()
        assert lines[0] == "alpha,residual"
        assert len(lines) == 3


class TestAuditCommand:
    def test_gem_haar_clean(self, runner):
        res = run(runner, "audit", "--dims", "2,2,2", "--measure", "gem",
                  "--trials", "200", "--seed", "11")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["violations"] == 0

    def test_purification_expected_violations(self, runner):
        res = run(runner, "audit", "--dims", "3,3", "--measure", "negativity",
                  "--sampler", "purification", "--trials", "50", "--seed", "12",
                  "--expect-violation")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["violations"] == 50

    def test_purification_without_flag_exits_1(self, runner):
        res = run(runner, "audit", "--dims", "3,3", "--measure", "negativity",
                  "--sampler", "purification", "--trials", "10", "--seed", "12")
        assert res.exit_code == 1

    def test_qconcurrence_haar(self, runner):
        res = run(runner, "audit", "--dims", "3,3,3", "--measure", "qconcurrence",
                  "--q", "2", "--trials", "100", "--seed", "13")
        assert res.exit_code == 0
        assert json.loads(res.output)["violations"] == 0

    def test_byte_identical_for_same_seed(self, runner):
        args = ["audit", "--dims", "2,2,2", "--measure", "gem", "--trials", "50", "--seed", "21"]
        a = run(runner, *args)
        b = run(runner, *args)
        assert a.output == b.output

    def test_bad_dims_exit_2(self, runner):
        res = run(runner, "audit", "--dims", "2,x", "--measure", "gem", "--trials", "5")
        assert res.exit_code == 2
        for bad in ("0", "nan"):
            res = run(runner, "audit", "--dims", "2,2,2", "--measure", "gem", "--trials", "5", "--alpha", bad)
            assert res.exit_code == 2, bad
        # 40 qubits: rejected by the profile before a 16 TiB allocation
        res = run(runner, "audit", "--dims", ",".join(["2"] * 40), "--measure", "gem", "--trials", "5")
        assert res.exit_code == 2
        assert "MAX_TOTAL_DIM" in res.stderr
        # a negative seed is bad input, not an internal error (exit 3)
        res = run(runner, "audit", "--dims", "2,2", "--measure", "gem", "--trials", "3", "--seed", "-1")
        assert res.exit_code == 2
        assert res.stderr.startswith("error:") and "non-negative" in res.stderr
        res = run(runner, "audit", "--dims", "2,2", "--measure", "concurrence", "--q", "0.5", "--trials", "3")
        assert res.exit_code == 2
        assert "takes no q" in res.stderr

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_bad_tolerance_exits_2(self, runner, bad):
        # every trial violates (worst residual about -1.96), yet a NaN or infinite --tolerance once counted
        # 0 violations; the option is gone, so it is a usage error with no summary
        res = run(runner, "audit", "--dims", "3,3", "--sampler", "purification", "--measure", "negativity",
                  "--trials", "50", "--tolerance", bad)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "No such option" in res.stderr


class TestIndicatorCommand:
    def test_ghz(self, runner):
        res = run(runner, "indicator", "--state", "gallery:ghz(3)", "--alpha", "0.5")
        payload = json.loads(res.output)
        assert abs(payload["delta"] - math.sqrt(0.5)) < 1e-12

    def test_w3(self, runner):
        res = run(runner, "indicator", "--state", "gallery:w(3)", "--alpha", "0.5")
        payload = json.loads(res.output)
        assert abs(payload["delta"] - (1 / 3) ** 0.5) < 1e-12

    def test_biseparable_file(self, runner, tmp_path):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        amp = np.kron(plus, ep.named_state("bell").amplitudes)
        psi = ep.Ket(ep.DimensionProfile((2, 2, 2)), amp)
        path = tmp_path / "bisep.json"
        write_state_file(str(path), psi)
        res = run(runner, "indicator", "--state", str(path), "--alpha", "0.3")
        payload = json.loads(res.output)
        assert abs(payload["delta"]) <= 1e-7

    def test_alpha_must_be_open_interval(self, runner):
        res = run(runner, "indicator", "--state", "gallery:ghz(3)", "--alpha", "1.0")
        assert res.exit_code == 2


class TestStateFiles:
    def test_round_trip_preserves_measures(self, tmp_path):
        psi = ep.haar_random_ket(ep.DimensionProfile((2, 3, 2)), 77)
        path = tmp_path / "state.json"
        write_state_file(str(path), psi)
        back = read_state_file(str(path))
        assert back.profile.dims == psi.profile.dims
        for block in [(1,), (2,), (3,), (1, 3)]:
            for kind in (ep.GEM, ep.NEGATIVITY, ep.CONCURRENCE):
                a = ep.measure_value(psi, block, kind)
                b = ep.measure_value(back, block, kind)
                assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3), (2, 2, 2, 2), (2,)])
    def test_round_trip_is_exact(self, tmp_path, dims):
        # a norm a few ulps off 1 was rescaled on load, and -0.0 was written as the integer -0
        if dims == (2,):
            kets = [ep.Ket(ep.DimensionProfile(dims), [complex(-0.0, 0.6), complex(0.8, -0.0)])]
        else:
            kets = [ep.haar_random_ket(ep.DimensionProfile(dims), seed) for seed in range(8)]
        path = tmp_path / "state.json"

        def hexes(ket):
            return [(a.real.hex(), a.imag.hex()) for a in ket.amplitudes.tolist()]

        for psi in kets:
            write_state_file(str(path), psi)
            back = read_state_file(str(path))
            assert back.profile.dims == psi.profile.dims
            assert hexes(back) == hexes(psi)

    def test_mild_normalization_warns(self, tmp_path, capsys):
        psi = ep.named_state("bell")
        path = tmp_path / "state.json"
        data = {
            "dims": [2, 2],
            "amplitudes": [[float(a.real) * (1 + 3e-8), float(a.imag)] for a in psi.amplitudes],
        }
        path.write_text(json.dumps(data))
        runner = CliRunner()
        res = runner.invoke(main, ["measure", "--state", str(path), "--measure", "gem"])
        assert res.exit_code == 0
        assert "renormalizing" in res.stderr

    def test_bad_norm_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2], "amplitudes": [[2.0, 0.0], [0.0, 0.0]]}))
        with pytest.raises(ep.InputError):
            read_state_file(str(path))

    def test_nan_amplitudes_exit_2(self, runner, tmp_path):
        # a NaN amplitude makes the norm NaN, which slipped past both norm checks
        path = tmp_path / "state.json"
        amplitudes = [[float("nan"), 0.0], [0.6, 0.0], [0.0, 0.0], [0.8, 0.0]]
        path.write_text(json.dumps({"dims": [2, 2], "amplitudes": amplitudes}))
        res = run(runner, "epi-check", "--state", str(path), "--measure", "gem")
        assert res.exit_code == 2
        assert "finite" in res.stderr

    def test_missing_file_exits_2(self, runner, tmp_path):
        res = run(runner, "measure", "--state", "nope.json", "--measure", "gem")
        assert res.exit_code == 2
        # malformed content exits 2 like a missing file, naming the file
        malformed = [
            {"dims": [2, "x"], "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            {"dims": [2], "amplitudes": [[1], [0, 0]]},
            {"dims": [2], "amplitudes": 5},
            {"dims": [2], "amplitudes": [["a", 0], [0, 0]]},
            # was truncated to (2, 2), so measure exited 0 with values for the wrong profile
            {"dims": [2.9, 2], "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        ]
        for i, data in enumerate(malformed):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(data))
            res = run(runner, "measure", "--state", str(path), "--measure", "gem")
            assert res.exit_code == 2, data
            assert str(path) in res.stderr


    @pytest.mark.parametrize("content, message", [
        # exited 3 with "internal error: UnicodeDecodeError"
        (b"\xff\xfe{}", "is not UTF-8 text"),
        # the same through json's RecursionError
        (b"[" * 100_000, "nests too deeply"),
        # the squared norm 1e400 overflowed in `_norm`'s dot with a RuntimeWarning before exit 2
        (b'{"dims": [2], "amplitudes": [[1e200, 0], [0, 0]]}', "norm inf is too far from 1"),
    ], ids=["not-utf8", "deep", "huge-amplitude"])
    def test_unreadable_content_exits_2(self, runner, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        res = run(runner, "measure", "--state", str(path), "--measure", "gem")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == res.stderr.splitlines()[0] + "\n"
        assert res.stderr.startswith(f"error: state file {str(path)!r} ") and message in res.stderr


class TestExitCodes:
    """The group boundary: verdict 0/1, input error 2, internal error 3, click's own codes."""

    def test_internal_error_exits_3(self, runner, monkeypatch):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("entpoly.cli.one_to_rest_values", boom)
        res = run(runner, "measure", "--state", "gallery:bell", "--measure", "gem")
        assert res.exit_code == 3
        assert res.stderr == "internal error: RuntimeError: boom\n"
        assert res.stdout == ""

    def test_verdict_1_is_unchanged(self, runner):
        res = run(runner, "epi-check", "--state", "gallery:example2", "--measure", "negativity")
        assert res.exit_code == 1
        assert res.stderr == ""
        assert json.loads(res.stdout)["holds"] is False

    @pytest.mark.parametrize("args", [["--help"], ["audit", "--help"], ["epi-check", "--help"]])
    def test_help_exits_0(self, runner, args):
        res = run(runner, *args)
        assert res.exit_code == 0
        assert "Usage:" in res.stdout

    @pytest.mark.parametrize("args", [["audit", "--bogus"], ["nope"], ["audit", "--sampler", "ppt"]])
    def test_usage_error_exits_2(self, runner, args):
        res = run(runner, *args)
        assert res.exit_code == 2
        assert "Usage:" in res.stderr

    @pytest.mark.parametrize("args", [
        ["epi-check", "--state", "gallery:example2", "--measure", "negativity"],
        ["audit", "--dims", "2,2", "--measure", "gem", "--trials", "3"],
    ], ids=["epi-check", "audit"])
    def test_violation_threshold_is_no_option(self, runner, args):
        # the threshold is the constant polygon.VIOLATION_TOL; a NaN or infinite --tolerance once flipped verdicts
        res = run(runner, *args, "--tolerance", "0.5")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "No such option" in res.stderr and "--tolerance" in res.stderr
        assert "--tolerance" not in run(runner, args[0], "--help").stdout


class TestJsonSerialization:
    def test_floats_round_trip(self):
        values = [0.16, 1 / 3, math.sqrt(0.2419), 4.0, 1e-17]
        text = json_dumps({"values": values})
        assert json.loads(text)["values"] == values

    def test_negative_zero_round_trips_as_a_float(self):
        # format(-0.0, ".17g") is "-0", which JSON reads back as the int 0
        text = json_dumps({"r": -0.0, "s": np.float64(-0.0), "z": 0.0, "i": 0})
        assert text == '{"r": -0.0, "s": -0.0, "z": 0, "i": 0}'
        back = json.loads(text)
        for key in ("r", "s"):
            assert isinstance(back[key], float) and math.copysign(1.0, back[key]) == -1.0

    def test_deterministic(self):
        payload = {"a": 1.0, "b": [True, None, "x"], "c": {"d": 0.1}}
        assert json_dumps(payload) == json_dumps(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=repr)
    def test_non_finite_numbers_refused(self, bad):
        # printed the tokens nan and inf, which strict JSON parsers reject
        with pytest.raises(ValueError, match="non-finite"):
            json_dumps({"residuals": [0.5, bad]})

    def test_non_finite_output_is_an_internal_error(self, runner, monkeypatch):
        monkeypatch.setattr("entpoly.cli.one_to_rest_values", lambda *args: np.array([0.5, math.nan]))
        for fmt in ("json", "csv"):
            res = run(runner, "measure", "--state", "gallery:bell", "--measure", "gem", "--format", fmt)
            assert res.exit_code == 3
            assert res.stdout == ""
            assert res.stderr.startswith("internal error: ValueError: refusing to print the non-finite number")


def test_cli_import_leaves_numpy_random_unimported():
    # the audit's stored-seed type is built on first use, so a CLI process that
    # draws nothing does not pay for importing numpy.random
    src = str(Path(ep.__file__).resolve().parent.parent)
    code = "import sys, entpoly.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
