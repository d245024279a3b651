"""Seeded CLI fuzz: every command keeps the exit-code and output contract on valid and invalid values.

The contract (README, CLI): exit 0 or 1 prints a verdict as strict JSON or as
CSV of finite numbers, bad input exits 2, and an internal error (3) never
happens.  A numpy RuntimeWarning is an error here, so a command that computes
on overflowed or non-finite numbers exits 3 and fails the test.
"""

import csv
import io
import json
import math
import random
import warnings

from click.testing import CliRunner

import entpoly as ep
from entpoly.cli import main, write_state_file

CASES = 3000
SEED = 20220526

# Each pool is (valid, invalid) values.  Sizes stay small: the largest valid
# state is ten qubits, the largest audit five trials and the largest sweep 100
# steps, so each case takes a few ms.
GALLERY = (
    ["gallery:bell", "gallery:example1", "gallery:example2", "gallery:example3", "gallery:ghz(3)", "gallery:w(4)",
     "gallery:ghz(10)"],
    ["gallery:ghz(1)", "gallery:ghz(40)", "gallery:example9", "gallery:", "gallery:example1-paper-values"],
)
ALPHAS = (["1", "0.5", "0.01", "0.99", "1.5", "2", "1e308", "1e-308", "5e-324"],
          ["0", "-1", "nan", "inf", "-inf", "x", ""])
QS = (["2", "1.7", "1e308"], ["1", "0.5", "-1", "nan", "inf", "x"])
PARTITIONS = (["1|2", "1|2|3", "1,2|3", "1|2,3", "1|2|3|4", "1|2,3|4", "1,2,3|4", " 1 | 2 "],
              ["1|1", "1|", "", "a|b", "0|1", "1|3", "1|2|3|4|5", "99999999999999999999|1"])
VALUES = (["0.5,0.5", "0.5,4,1", "0.36,0.76,0.56", "1e-320,1", "0,0", "1e308,1e-308,1"],
          ["1e308,1e308", "0.5", "", ",", "x,1", "nan,1", "inf,1", "-1,2"])
DIMS = (["2,2", "2,2,2", "3,3", "2,3", "3,3,9", "3,3,3", "2,2,2,2,2,2,2,2,2,2", "2", "2, 2"],
        ["1,2", "0", "", "x", "2,,2", "2.5,2", "4096,4096,4096"])
BLOCKS = (["1", "2", "3"], ["0", "-1", "x", "1.5", "99999999999999999999999"])
TRIALS = (["1", "2", "5"], ["0", "-1", "x", "1.5"])
SEEDS = (["0", "1", "7", "18446744073709551616"], ["-1", "x"])
STEPS = (["1", "2", "3", "100"], ["0", "-5", "10001", "x"])
MEASURES = (["gem", "concurrence", "negativity", "qconcurrence"], ["bogus"])
SAMPLERS = (["haar", "purification", "gw"], ["bogus"])
FORMATS = (["json", "csv"], ["xml"])


def _state_files(tmp_path) -> tuple[list[str], list[str]]:
    """Valid state files (one mildly off-norm), and malformed files and paths that are not files."""
    good = tmp_path / "haar.json"
    write_state_file(str(good), ep.haar_random_ket(ep.DimensionProfile((2, 3, 2)), 5))
    off_norm = tmp_path / "off-norm.json"
    off_norm.write_text('{"dims": [2, 2], "amplitudes": [[0.70710679, 0], [0, 0], [0, 0], [0.70710679, 0]]}')
    bad = {
        "far-norm": '{"dims": [2], "amplitudes": [[2, 0], [0, 0]]}',
        "huge": '{"dims": [2], "amplitudes": [[1e200, 0], [0, 0]]}',
        "tiny": '{"dims": [2], "amplitudes": [[1e-200, 0], [0, 0]]}',
        "nan": '{"dims": [2], "amplitudes": [[NaN, 0], [1, 0]]}',
        "inf-dim": '{"dims": [1e400], "amplitudes": [[1, 0], [0, 0]]}',
        "float-dim": '{"dims": [2.5], "amplitudes": [[1, 0], [0, 0]]}',
        "bool-dim": '{"dims": [true, 2], "amplitudes": [[1, 0], [0, 0]]}',
        "shape": '{"dims": [2], "amplitudes": [[1, 0, 0], [0, 0, 0]]}',
        "ragged": '{"dims": [2], "amplitudes": [[1, 0], [0]]}',
        "string": '{"dims": [2], "amplitudes": "1,0"}',
        "list": "[2, 2]",
        "empty": "",
        "not-utf8": b"\xff\xfe{}",
        "deep": b"[" * 100_000,
    }
    for name, content in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    invalid = [str(tmp_path / f"{name}.json") for name in bad] + [str(tmp_path), str(tmp_path / "missing.json")]
    return [str(good), str(off_norm)], invalid


def _argv(rng: random.Random, states: tuple[list[str], list[str]]) -> list[str]:
    """One command line: half draw only valid values, half any value; each optional option in about a third."""
    command = rng.choice(["measure", "epi-check", "sweep", "audit", "indicator"])
    pools = {
        "measure": {"--state": states, "--partition": PARTITIONS, "--measure": MEASURES, "--q": QS},
        "epi-check": {"--state": states, "--partition": PARTITIONS, "--measure": MEASURES, "--q": QS,
                      "--alpha": ALPHAS},
        "sweep": {"--state": states, "--values": VALUES, "--partition": PARTITIONS, "--measure": MEASURES,
                  "--q": QS, "--block": BLOCKS, "--alpha-min": ALPHAS, "--alpha-max": ALPHAS, "--steps": STEPS},
        "audit": {"--dims": DIMS, "--partition": PARTITIONS, "--measure": MEASURES, "--q": QS,
                  "--sampler": SAMPLERS, "--trials": TRIALS, "--seed": SEEDS, "--alpha": ALPHAS},
        "indicator": {"--state": states, "--alpha": ALPHAS},
    }[command]
    # --trials too, as its default of 1000 would dominate the budget
    required = {"--state", "--measure", "--dims", "--trials"}
    if command == "sweep":
        required = {rng.choice(["--state", "--values"])}
    valid_only = rng.random() < 0.5
    argv = [command]
    for option, (valid, invalid) in {**pools, "--format": FORMATS}.items():
        if option in required or rng.random() < 0.3:
            argv += [option, rng.choice(valid if valid_only else valid + invalid)]
    flags = {"epi-check": ["--allow-unproven-alpha", "--expect-violation"], "sweep": ["--allow-unproven-alpha"],
             "audit": ["--allow-unproven-alpha", "--expect-violation"]}.get(command, [])
    return argv + [flag for flag in flags if rng.random() < 0.4]


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def _check_output(stdout: str, csv_format: bool) -> None:
    """Strict JSON (no NaN or Infinity), or CSV whose numeric cells are all finite."""
    if not csv_format:
        json.loads(stdout, parse_constant=_reject_constant)
        return
    rows = list(csv.reader(io.StringIO(stdout)))
    assert len(rows) >= 2
    for cell in (cell for row in rows[1:] for cell in row):
        try:
            x = float(cell)
        except ValueError:
            continue  # a block or party label such as "2,3" or "delta"
        assert math.isfinite(x), cell


def test_cli_contract_under_fuzzing(tmp_path):
    rng = random.Random(SEED)
    valid, invalid = _state_files(tmp_path)
    states = (GALLERY[0] + valid, GALLERY[1] + invalid)
    runner = CliRunner()
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(CASES):
        argv = _argv(rng, states)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning exits 3 through the command group
            res = runner.invoke(main, argv)
        assert res.exit_code in codes, (argv, res.exit_code, res.stderr, res.exception)
        codes[res.exit_code] += 1
        if res.exit_code == 2:
            assert res.stdout == "", argv  # a rejected input prints no result
        else:
            _check_output(res.stdout, "csv" in argv)
    # the pools reach every outcome, verdicts included, not only rejections
    assert min(codes.values()) >= 20, codes

