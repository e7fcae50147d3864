import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symqkd import attack, cli, rates
from symqkd.states import Protocol


def run_in_process(argv: list[str], env: dict[str, str] | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one cli.main call, with QKD_LOG unset unless ``env`` sets it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("QKD_LOG", raising=False)
        for name, value in (env or {}).items():
            mp.setenv(name, value)
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_cli(argv: list[str], env: dict[str, str] | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a fresh `python -m symqkd` in this environment plus ``env``."""
    cmd = [sys.executable, "-m", "symqkd", *argv]
    cp = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, **(env or {})})
    return cp.returncode, cp.stdout, cp.stderr


def avx512_ufuncs() -> bool:
    """Whether numpy dispatches its float64 ufuncs (cos, arccos, log2, ...) to AVX-512."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    # X86_V4 is the AVX-512 dispatch target from numpy 2.3 on, AVX512_SKX before.
    return bool(__cpu_features__.get("X86_V4", __cpu_features__.get("AVX512_SKX")))


def test_help():
    code, out, err = run_in_process(["--help"])
    assert code == 0, err
    for command in ("verify", "curve", "threshold", "minimize", "simulate"):
        assert command in out


class TestVerify:
    ANCILLA_ROWS = ("F_norm", "D_norm", "FD_ortho", "FF_overlap", "DD_overlap", "FD_cross")
    OUTPUT_ROWS = ("channel_contraction", "complementary_output")

    def assert_rows(self, stdout: str, bases: str) -> None:
        """8 rows per basis (every basis's ancilla rows first), the rate identity, then the max."""
        table = [line.split() for line in stdout.splitlines()]
        expected = [f"{b}:{c}" for b in bases for c in self.ANCILLA_ROWS]
        expected += [f"{b}:{c}" for b in bases for c in self.OUTPUT_ROWS]
        assert [name for name, _ in table] == expected + ["rate_identity", "max_residual"]
        values = [float(value) for _, value in table]
        assert values[-1] == max(values[:-1]) <= 1e-9

    def test_bb84_passes(self):
        code, out, err = run_in_process(["verify", "--protocol", "bb84", "--x", "0.7", "--y", "0.7"])
        assert code == 0, err
        self.assert_rows(out, "ZX")

    def test_six_state_passes_including_y_basis(self):
        code, out, err = run_in_process(["verify", "--protocol", "six-state", "--x", "1.0"])
        assert code == 0, err
        self.assert_rows(out, "ZXY")

    def test_six_state_accepts_y_as_printed_by_curve(self):
        y = run_in_process(["curve", "--protocol", "six-state", "--grid", "3"])[1].splitlines()[1].split(",")[1]
        assert y == "1.57079632679"
        code, _, err = run_in_process(["verify", "--protocol", "six-state", "--x", "1.0", "--y", y])
        assert code == 0, err

    def test_six_state_rejects_free_y(self):
        code, _, err = run_in_process(["verify", "--protocol", "six-state", "--x", "1.0", "--y", "0.3"])
        assert code == 2
        assert "pi/2" in err

    def test_bb84_y_defaults_to_x(self):
        code, _, err = run_in_process(["verify", "--protocol", "bb84", "--x", "0.9"])
        assert code == 0, err

    def test_bb84_y_equals_pi_rejected(self):
        # QBER is 1 on this edge, although (1 - cos x)/(1 - cos x) rounds below 1 here.
        argv = ["verify", "--protocol", "bb84", "--x", "1.5707963267948966", "--y", "3.141592653589793"]
        code, _, err = run_in_process(argv)
        assert code == 2
        assert "y = pi" in err


class TestIsometryBuilds:
    """verify builds the attack's isometry once and reads it twice; simulate never needs it."""

    @pytest.fixture
    def builds(self, monkeypatch) -> list:
        """Every call of attack_isometry, through whichever symqkd module binds it."""
        calls, build = [], attack.attack_isometry
        for name, module in list(sys.modules.items()):
            if name.startswith("symqkd") and getattr(module, "attack_isometry", None) is build:
                monkeypatch.setattr(module, "attack_isometry", lambda params: calls.append(params) or build(params))
        return calls

    @pytest.mark.parametrize(
        "argv",
        [["--protocol", "bb84", "--x", "0.7", "--y", "1.9"], ["--protocol", "six-state", "--x", "1.0"]],
        ids=["bb84", "six-state"],
    )
    def test_verify_builds_it_once(self, argv, builds):
        assert run_in_process(["verify", *argv])[0] == 0
        assert len(builds) == 1

    def test_simulate_never_builds_it(self, builds):
        for protocol in ("bb84", "six-state"):
            assert run_in_process(["simulate", "--protocol", protocol, "--x", "0.5", "--rounds", "1000"])[0] == 0
        assert builds == []


class TestCurve:
    HEADER = "x,y,D,I_AB,chi_AE,R_DW_numeric,R_DW_closed,abs_diff"

    def test_bb84_grid_three(self, tmp_path):
        out = tmp_path / "curve.csv"
        code, _, err = run_in_process(["curve", "--protocol", "bb84", "--grid", "3", "--out", str(out)])
        assert code == 0, err
        lines = out.read_text().strip().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 4
        first = dict(zip(self.HEADER.split(","), lines[1].split(",")))
        assert float(first["D"]) == 0.0
        assert float(first["R_DW_numeric"]) == 1.0
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert abs(xs[1] - math.pi / 4) <= 1e-9 and abs(xs[2] - math.pi / 2) <= 1e-9

    def test_six_state_oracle_agreement(self, tmp_path):
        out = tmp_path / "curve.csv"
        code, _, err = run_in_process(["curve", "--protocol", "six-state", "--grid", "60", "--out", str(out)])
        assert code == 0, err
        rows = out.read_text().strip().splitlines()[1:]
        diffs = [float(r.split(",")[-1]) for r in rows]
        assert max(diffs) <= 1e-9

    def test_json_rows_share_keys(self):
        code, out, err = run_in_process(["curve", "--protocol", "bb84", "--grid", "4", "--format", "json"])
        assert code == 0, err
        payload = json.loads(out)
        assert len(payload) == 4
        keys = tuple(payload[0])
        assert keys == tuple(self.HEADER.split(","))
        assert all(tuple(row) == keys for row in payload)

    def stdlib_reference(self, table) -> dict[str, str]:
        """Every CSV cell is format(v, ".12g"); JSON is json.dumps of those cells read back."""
        table = table.tolist()
        csv = [self.HEADER] + [",".join(format(v, ".12g") for v in row) for row in table]
        payload = [dict(zip(rates.CURVE_COLUMNS, (float(format(v, ".12g")) for v in row))) for row in table]
        return {"csv": "\n".join(csv) + "\n", "json": json.dumps(payload, indent=2) + "\n"}

    @pytest.mark.parametrize("grid", [2, 3, 200, 4097])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_output_pinned_to_stdlib_formatting(self, protocol, grid):
        for fmt, expected in self.stdlib_reference(rates.rate_curve(protocol, grid)).items():
            argv = ["curve", "--protocol", protocol.value, "--grid", str(grid), "--format", fmt]
            assert run_in_process(argv)[:2] == (0, expected)

    # Cells on every side of the JSON token rule: integral values ('.0' appended),
    # 1e-4 and the %.12g exponents just below it, a subnormal and a normal at the
    # bottom of the range (a subnormal's repr has fewer digits), and values at
    # and past 1e12, where %.12g switches to an exponent and repr does not.
    EDGE_CELLS = (
        0.0, -0.0, 1.0, 2.0, 1e-05, 0.0001, 9.99999999999e-05, 5e-324,
        2.2250738585072014e-308, 123456789012.0, 1.5e12, 1e16,
    )

    def test_json_token_rule_on_edge_cells(self, monkeypatch):
        k = len(self.EDGE_CELLS)
        columns = [np.roll(self.EDGE_CELLS, -j) for j in range(7)]  # each cell in every column
        table = np.column_stack(columns + [np.abs(columns[5] - columns[6])])
        monkeypatch.setattr(rates, "rate_curve", lambda protocol, grid: table)
        for fmt, expected in self.stdlib_reference(table).items():
            argv = ["curve", "--protocol", "bb84", "--grid", str(k), "--format", fmt]
            assert run_in_process(argv)[:2] == (0, expected)

    def test_unwritable_path_is_io_failure(self):
        assert run_in_process(["curve", "--protocol", "bb84", "--grid", "3", "--out", "/nonexistent/dir/x.csv"])[0] == 1

    def test_tiny_grid_rejected(self):
        assert run_in_process(["curve", "--protocol", "bb84", "--grid", "1"])[0] == 2


class TestThreshold:
    def test_bb84(self):
        code, out, err = run_in_process(["threshold", "--protocol", "bb84"])
        assert code == 0, err
        assert "0.110028" in out

    def test_six_state(self):
        code, out, err = run_in_process(["threshold", "--protocol", "six-state"])
        assert code == 0, err
        assert "0.126193" in out

    def test_six_state_threshold_larger(self):
        d_bb, d_six = (
            float(run_in_process(["threshold", "--protocol", p])[1].splitlines()[1].split()[-1])
            for p in ("bb84", "six-state")
        )
        assert d_six > d_bb

    @pytest.mark.parametrize(
        "protocol, text",
        [
            ("bb84", "protocol:   bb84\nD_star:     0.110028\nresidual:   -4.85174123099e-11\niterations: 33\n"),
            ("six-state", "protocol:   six-state\nD_star:     0.126193\nresidual:   7.42017558508e-11\niterations: 33\n"),
        ],
    )
    def test_stdout_pinned(self, protocol, text):
        assert run_in_process(["threshold", "--protocol", protocol])[:2] == (0, text)


class TestMinimize:
    def test_five_percent_gap(self):
        code, out, err = run_in_process(["minimize", "--d-target", "0.05", "--grid", "800"])
        assert code == 0, err
        fields = dict(line.split(":") for line in out.strip().splitlines())
        assert float(fields["gap"]) <= 1e-6

    @pytest.mark.parametrize("d_target", ["1e-10", "1e-12", "1e-15"])
    def test_tiny_target_is_not_a_degenerate_angle(self, d_target):
        # cos(x) rounds to 1 at the first scan points here; they have QBER 0,
        # not the target, and must be skipped, not handed to the rate formula.
        code, out, _ = run_in_process(["minimize", "--d-target", d_target, "--grid", "2000"])
        assert code == 0
        fields = dict(line.split(":") for line in out.strip().splitlines())
        assert float(fields["gap"]) <= 1e-9
        assert abs(float(fields["x_best"]) / math.acos(1.0 - 2.0 * float(d_target)) - 1.0) <= 0.015

    @pytest.mark.parametrize("d_target", ["1e-16", "1e-17", "5e-324"])
    def test_target_below_the_floor_exits_two(self, d_target):
        # Below 1e-15, cos(x) rounds to 1 near x* and no scan resolves the argmin.
        code, _, err = run_in_process(["minimize", "--d-target", d_target, "--grid", "2000"])
        assert (code, err) == (2, f"error: target QBER {d_target} below minimize's floor 1e-15\n")

    def test_quarter_lands_on_diagonal(self):
        out = run_in_process(["minimize", "--d-target", "0.25", "--grid", "800"])[1]
        fields = dict(line.split(":") for line in out.strip().splitlines())
        assert abs(float(fields["x_best"]) - math.pi / 3) <= 1e-4
        assert abs(float(fields["y_best"]) - math.pi / 3) <= 1e-4

    def test_out_of_domain_rejected(self):
        assert run_in_process(["minimize", "--d-target", "0.6", "--grid", "800"])[0] == 2

    # Digits 9-12 of x_best and y_best are search-path noise, so this text
    # moves if the golden-section search takes any other path. It was printed
    # with numpy 2.4.6 on AVX-512 float64 ufuncs. Without that dispatch,
    # numpy's cos and arccos round differently, and 0.25/100 and 0.3/2000
    # print the other digits of WITHOUT_AVX512, pinned in full as well.
    # TestMinimizeFamilyRate::test_lookahead_depth_never_moves_the_search_path
    # guards the path on any platform.
    RECORD = "D_target: %s\nx_best:   %s\ny_best:   %s\nR_min:    %s\ngap:      %s\n"
    # d_target, grid, x_best, y_best, R_min, gap
    PINNED = [
        ("0.01", "100", "0.200334841487", "0.200334925101", "0.838413728208", "0"),
        ("0.01", "2000", "0.200334842468", "0.200334828029", "0.838413728208", "1.11022302463e-16"),
        ("0.01", "5001", "0.200334842998", "0.200334775495", "0.838413728208", "1.11022302463e-16"),
        ("0.05", "100", "0.451026813038", "0.451026788198", "0.427206085768", "1.66533453694e-16"),
        ("0.05", "2000", "0.451026812629", "0.451026795979", "0.427206085768", "2.22044604925e-16"),
        ("0.05", "5001", "0.451026812042", "0.451026807125", "0.427206085768", "1.66533453694e-16"),
        ("0.11", "100", "0.676130511788", "0.676130491539", "0.000168083670944", "7.6327832943e-17"),
        ("0.11", "2000", "0.676130508122", "0.676130521204", "0.000168083670944", "2.08166817117e-17"),
        ("0.11", "5001", "0.676130511082", "0.676130497252", "0.000168083670944", "1.38777878078e-17"),
        ("0.123", "100", "0.716665899751", "0.716665912748", "-0.0758464621027", "5.55111512313e-17"),
        ("0.123", "2000", "0.716665901407", "0.716665900942", "-0.0758464621027", "9.71445146547e-17"),
        ("0.123", "5001", "0.716665902614", "0.716665892331", "-0.0758464621027", "1.80411241502e-16"),
        ("0.25", "100", "1.04719755686", "1.0471975342", "-0.622556248918", "0"),
        ("0.25", "2000", "1.04719754964", "1.04719755585", "-0.622556248918", "1.11022302463e-16"),
        ("0.25", "5001", "1.04719756014", "1.04719752437", "-0.622556248918", "2.22044604925e-16"),
        ("0.3", "100", "1.15927949023", "1.15927945856", "-0.762581798461", "3.33066907388e-16"),
        ("0.3", "2000", "1.15927947526", "1.15927949349", "-0.762581798461", "1.11022302463e-16"),
        ("0.3", "5001", "1.1592794808", "1.15927948055", "-0.762581798461", "2.22044604925e-16"),
        ("0.45", "100", "1.47062891894", "1.47062888937", "-0.985548907976", "2.22044604925e-16"),
        ("0.45", "2000", "1.47062891604", "1.47062889291", "-0.985548907976", "1.11022302463e-16"),
        ("0.45", "5001", "1.47062891105", "1.47062889902", "-0.985548907976", "0"),
        ("0.4999", "100", "1.57059632619", "1.5705963274", "-0.999999942292", "1.11022302463e-16"),
        ("0.4999", "2000", "1.57059633963", "1.57059631396", "-0.999999942292", "0"),
        ("0.4999", "5001", "1.57059632713", "1.57059632646", "-0.999999942292", "0"),
    ]

    # (d_target, grid): x_best, y_best, R_min, gap with the AVX-512 dispatch off
    WITHOUT_AVX512 = {
        ("0.25", "100"): ("1.04719755691", "1.04719753406", "-0.622556248918", "0"),
        ("0.3", "2000"): ("1.15927947496", "1.15927949418", "-0.762581798461", "2.22044604925e-16"),
    }

    @pytest.mark.parametrize("fields", PINNED, ids=lambda f: "-".join(f[:2]))
    def test_stdout_pinned(self, fields):
        d_target, grid = fields[:2]
        printed = fields[2:] if avx512_ufuncs() else self.WITHOUT_AVX512.get((d_target, grid), fields[2:])
        argv = ["minimize", "--d-target", d_target, "--grid", grid]
        assert run_in_process(argv)[:2] == (0, self.RECORD % (d_target, *printed))


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--protocol", "bb84", "--x", "0.92", "--rounds", "100000", "--seed", "42"]
        assert run_in_process([*argv, "--out", str(a)])[0] == 0
        assert run_in_process([*argv, "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bb84_qber_within_four_sigma(self, tmp_path):
        out = tmp_path / "sim.json"
        x = math.acos(1 - 2 * 0.1)
        argv = ["simulate", "--protocol", "bb84", "--x", str(x), "--rounds", "200000", "--seed", "42"]
        code, _, err = run_in_process([*argv, "--out", str(out)])
        assert code == 0, err
        record = json.loads(out.read_text())
        assert abs(record["qber_hat"] - 0.1) <= 4 * record["qber_se"]
        assert record["rng_name"] == "numpy-pcg64"

    def test_six_state_sift_fraction(self, tmp_path):
        out = tmp_path / "sim.json"
        argv = ["simulate", "--protocol", "six-state", "--x", "1.0", "--rounds", "200000", "--seed", "11"]
        code, _, err = run_in_process([*argv, "--out", str(out)])
        assert code == 0, err
        record = json.loads(out.read_text())
        sift_se = math.sqrt((1 / 3) * (2 / 3) / record["rounds"])
        assert abs(record["sift_fraction"] - 1 / 3) <= 4 * sift_se

    def test_zero_rounds_rejected(self):
        assert run_in_process(["simulate", "--protocol", "bb84", "--x", "0.5", "--rounds", "0"])[0] == 2

    def test_rounds_past_the_int64_counts_exit_two(self):
        rounds = str(10**30)
        argv = ["simulate", "--protocol", "bb84", "--x", "0.5", "--rounds", rounds, "--seed", "1"]
        assert run_in_process(argv) == (2, "", f"error: rounds must be between 1 and 2**63 - 1, not {rounds}\n")

    # The child pins itself to one CPU of its affinity set, as `taskset -c` does,
    # before the simulator counts the CPUs it may use.
    PIN_TO_ONE_CPU = (
        "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from symqkd import cli, protosim; assert protosim._available_cpus() == 1; sys.exit(cli.main(sys.argv[1:]))"
    )

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_one_cpu_run_prints_the_bytes_of_an_unpinned_run(self, monkeypatch):
        """Pinned to one CPU the simulator runs one worker, unpinned (here, in process) one per CPU: same bytes."""
        monkeypatch.delenv("QKD_LOG", raising=False)  # the child logs at run_in_process's default level too
        argv = ["simulate", "--protocol", "six-state", "--x", "0.9", "--rounds", "300000", "--seed", "11"]
        pinned = subprocess.run([sys.executable, "-c", self.PIN_TO_ONE_CPU, *argv], capture_output=True, text=True)
        assert (pinned.returncode, pinned.stderr) == (0, "")
        assert (pinned.returncode, pinned.stdout, pinned.stderr) == run_in_process(argv)

    # The JSON record, byte for byte, on both sides of a block boundary
    # (32769 is one round past a block) and for a ragged run.
    RECORD = """{
  "protocol": "%s",
  "x": %s,
  "y": %s,
  "D_analytic": %s,
  "rounds": %s,
  "seed": %s,
  "sifted_count": %s,
  "sift_fraction": %s,
  "qber_hat": %s,
  "qber_se": %s,
  "estimation_count": %s,
  "rng_name": "numpy-pcg64"
}
"""
    # protocol, x, y, D_analytic, rounds, seed, sifted_count, sift_fraction, qber_hat, qber_se, estimation_count
    PINNED = [
        ("bb84", "0.9273", "0.9273", "0.200001912803", "1", "42", "0", "0.0", "0.0", "0.0", "0"),
        ("bb84", "0.9273", "0.9273", "0.200001912803", "1", "18446744073709551615", "0", "0.0", "0.0", "0.0", "0"),
        ("bb84", "0.9273", "0.9273", "0.200001912803", "32769", "42",
         "16371", "0.499588025268", "0.205531112508", "0.0101307627267", "1591"),
        ("bb84", "0.9273", "0.9273", "0.200001912803", "32769", "18446744073709551615",
         "16608", "0.506820470567", "0.206724782067", "0.0101049796778", "1606"),
        ("bb84", "0.9273", "0.9273", "0.200001912803", "100003", "42",
         "50000", "0.49998500045", "0.205311137535", "0.00568631867234", "5046"),
        ("bb84", "0.9273", "0.9273", "0.200001912803", "100003", "18446744073709551615",
         "49992", "0.49990500285", "0.202506063056", "0.00571304789276", "4948"),
        ("six-state", "1.2", "1.57079632679", "0.389366021343", "1", "42", "0", "0.0", "0.0", "0.0", "0"),
        ("six-state", "1.2", "1.57079632679", "0.389366021343", "1", "18446744073709551615",
         "0", "0.0", "0.0", "0.0", "0"),
        ("six-state", "1.2", "1.57079632679", "0.389366021343", "32769", "42",
         "11050", "0.337208947481", "0.393721973094", "0.0146316501035", "1115"),
        ("six-state", "1.2", "1.57079632679", "0.389366021343", "32769", "18446744073709551615",
         "10865", "0.331563367817", "0.414354066986", "0.0152386054115", "1045"),
        ("six-state", "1.2", "1.57079632679", "0.389366021343", "100003", "42",
         "33382", "0.3338099857", "0.395639534884", "0.00833716973686", "3440"),
        ("six-state", "1.2", "1.57079632679", "0.389366021343", "100003", "18446744073709551615",
         "33304", "0.3330300091", "0.390484739677", "0.00843900223688", "3342"),
    ]

    @pytest.mark.parametrize("fields", PINNED, ids=lambda f: "-".join((f[0], f[4], f[5])))
    def test_stdout_pinned(self, fields):
        protocol, x, _, _, rounds, seed = fields[:6]
        argv = ["simulate", "--protocol", protocol, "--x", x, "--rounds", rounds, "--seed", seed]
        assert run_in_process(argv)[:2] == (0, self.RECORD % fields)


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--protocol", "bb84", "--x", "0.7", "--y", "1.1"],
        ["verify", "--protocol", "six-state", "--x", "0.7"],
        ["threshold", "--protocol", "bb84"],
        ["minimize", "--d-target", "0.05", "--grid", "100"],
        ["curve", "--protocol", "bb84", "--grid", "5"],
        ["curve", "--protocol", "six-state", "--grid", "5", "--format", "json"],
        ["simulate", "--protocol", "six-state", "--x", "0.5", "--rounds", "1000", "--seed", "3"],
    ],
    ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv[:3]),
)
def test_each_command_writes_its_result_in_one_write(argv, monkeypatch):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(argv) == 0
    assert stdout.writes == 1
    assert stdout.getvalue().count("\n") > 1


class TestEnvironment:
    def test_unknown_flags_exit_two(self):
        assert run_in_process(["threshold", "--protocol", "b92"])[0] == 2
        assert run_in_process(["frobnicate"])[0] == 2

    def test_logging_goes_to_stderr_only(self):
        code, out, err = run_in_process(["curve", "--protocol", "bb84", "--grid", "3"], env={"QKD_LOG": "info"})
        assert code == 0
        assert "INFO" in err
        assert out.splitlines()[0] == TestCurve.HEADER

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--protocol", "bb84", "--grid", "1000000000000"],
            ["minimize", "--d-target", "0.1", "--grid", "1000000000000"],
        ],
    )
    def test_size_too_large_for_memory_exits_two(self, argv, monkeypatch):
        """A --grid the machine cannot hold is an invalid argument: one error line, no traceback."""
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(rates, "rate_curve", out_of_memory)
        monkeypatch.setattr(rates, "minimize_family_rate", out_of_memory)
        assert run_in_process(argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--protocol", "bb84", "--grid", "9223372036854775807"],
            ["curve", "--protocol", "six-state", "--grid", "9223372036854775806"],
            ["minimize", "--d-target", "0.1", "--grid", "9223372036854775806"],
            ["curve", "--protocol", "bb84", "--grid", str(2**40 + 1)],
            ["minimize", "--d-target", "0.1", "--grid", str(2**40 + 1)],
        ],
        ids=["curve-2**63-1", "curve-2**63-2", "minimize-2**63-2", "curve-2**40+1", "minimize-2**40+1"],
    )
    def test_grid_above_the_ceiling_exits_two(self, argv):
        """Past 2**40 a grid is refused before numpy sizes it; near 2**63 that size overflowed."""
        assert run_in_process(argv) == (2, "", f"error: grid must be at most 2**40, not {argv[-1]}\n")

    @pytest.mark.parametrize("command", ["curve", "minimize"])
    def test_grid_at_the_ceiling_is_not_refused(self, command, monkeypatch):
        """2**40 itself passes the ceiling and goes on to allocate, here a stand-in that cannot."""

        def out_of_memory(*args, **kwargs):
            raise MemoryError("stand-in allocation failure")

        monkeypatch.setattr(np, "linspace", out_of_memory)
        argv = ["curve", "--protocol", "bb84"] if command == "curve" else ["minimize", "--d-target", "0.1"]
        assert run_in_process([*argv, "--grid", str(2**40)]) == (2, "", "error: stand-in allocation failure\n")

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["verify", "--protocol", "bb84", "--x", "-1e-3"], 0, ""),
            (["minimize", "--d-target", "-1e-3"], 2, "error: target QBER -0.001 outside (0, 1/2)\n"),
        ],
        ids=["verify", "minimize"],
    )
    def test_negative_value_binds_to_its_option(self, argv, code, err):
        """`--opt -1e-3` is `--opt=-1e-3`, not a flag: the option's own check judges the value."""
        result = run_in_process(argv)
        assert (result[0], result[2]) == (code, err)
        assert run_in_process([*argv[:-2], f"{argv[-2]}={argv[-1]}"]) == result

    @pytest.mark.parametrize(
        "argv",
        [["threshold", "--protocol", "bb84"], ["curve", "--protocol", "bb84", "--grid", "3"]],
        ids=["threshold", "curve"],
    )
    def test_closed_stdout_is_io_failure(self, argv, monkeypatch, tmp_path):
        """With stdout closed at start, sys.stdout is None: exit 1 with one i/o error line; --out still writes."""
        printed = run_in_process(argv)[1]
        err = io.StringIO()
        monkeypatch.delenv("QKD_LOG", raising=False)
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(sys, "stderr", err)
        assert cli.main(argv) == 1
        assert err.getvalue() == "i/o error: stdout is closed\n"
        if argv[0] == "curve":
            path = tmp_path / "curve.csv"
            assert cli.main([*argv, "--out", str(path)]) == 0
            assert path.read_text(encoding="utf-8") == printed
            assert err.getvalue() == "i/o error: stdout is closed\n"

    def test_each_in_process_call_applies_its_own_log_level_and_stderr(self):
        argv = ["threshold", "--protocol", "bb84"]
        first, second = run_in_process(argv), run_in_process(argv, env={"QKD_LOG": "info"})
        assert (first[0], second[0]) == (0, 0)
        assert first[2] == ""
        assert second[2].startswith("INFO symqkd: bisection converged in ")

    def test_repeated_in_process_calls_match_fresh_processes(self, monkeypatch, tmp_path):
        """One process's parser serves every call: each call matches a fresh `python -m symqkd`.

        Every other CLI test calls cli.main in process, as the benchmark does;
        this corpus is what shows that doing so stands for a fresh process.
        """
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        monkeypatch.delenv("QKD_LOG", raising=False)
        calls = [
            (["verify", "--protocol", "bb84", "--x", "1.0", "--y", "0.5"], None),
            (["verify", "--protocol", "bb84", "--x", "1.0"], None),  # --y must not leak from the call before
            (["threshold", "--protocol", "b92"], None),
            (["curve", "--protocol", "bb84", "--grid", "1"], None),
            (["--help"], None),
            (["simulate", "--protocol", "six-state", "--x", "0.8", "--rounds", "2000", "--seed", "5"], None),
            (["threshold", "--protocol", "bb84"], None),
            (["curve", "--protocol", "bb84", "--grid", "3", "--out", str(tmp_path / "missing" / "x.csv")], None),
            (["curve", "--protocol", "bb84", "--grid", "3"], {"QKD_LOG": "info"}),  # INFO on stderr, CSV on stdout
        ]
        for argv, env in calls:
            assert run_in_process(argv, env) == run_cli(argv, env), argv
        assert cli.build_parser() is cli.build_parser()


# Floats at every edge the parsers and the domain checks meet, then any float,
# then floats inside the attack domain.
EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e308, -1e308, math.pi, math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0), math.pi / 2,
)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(0.0, math.pi)).map(repr)
# Bounded so that no example asks for a large allocation; the MemoryError
# path is pinned by test_size_too_large_for_memory_exits_two. The second range
# reaches minimize's floor of 100 more often than the first alone, and the
# third lies above the grid ceiling of 2**40, around numpy's int64 sizes.
GRIDS = st.one_of(st.integers(-3, 5000), st.integers(90, 300), st.integers(2**62, 2**63 + 1)).map(str)


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["verify", "curve", "threshold", "minimize", "simulate"]))
    if command == "minimize":
        d_target = draw(st.one_of(FLOATS, st.floats(0.0, 0.5).map(repr)))
        return [command, "--d-target", d_target, "--grid", draw(GRIDS)]
    argv = [command, "--protocol", draw(st.sampled_from([p.value for p in Protocol]))]
    if command == "curve":
        return argv + ["--grid", draw(GRIDS), "--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "threshold":
        return argv
    argv += ["--x", draw(FLOATS)]
    if draw(st.booleans()):
        argv += ["--y", draw(FLOATS)]
    if command == "simulate":
        rounds = draw(st.one_of(st.integers(-3, 2**16), st.integers(2**63, 2**100)))
        argv += ["--rounds", str(rounds), "--seed", str(draw(st.integers(-1, 2**64)))]
    return argv


def assert_parses(command: str, argv: list[str], stdout: str) -> None:
    """stdout is the command's format: CSV or JSON for curve, JSON for simulate, else `key value` lines."""
    if command == "curve" and "json" in argv:
        assert all(tuple(row) == rates.CURVE_COLUMNS for row in json.loads(stdout))
    elif command == "curve":
        header, *rows = stdout.splitlines()
        assert header == ",".join(rates.CURVE_COLUMNS)
        assert all(len([float(cell) for cell in row.split(",")]) == len(rates.CURVE_COLUMNS) for row in rows)
    elif command == "simulate":
        assert json.loads(stdout)["rng_name"] == "numpy-pcg64"
    else:
        for line in stdout.splitlines():
            key, value = line.split()
            if key != "protocol:":
                float(value)


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_every_argv_exits_with_a_documented_code(argv):
    """Exit 0/1/2/3, no traceback at the default log level, and stdout in the command's format.

    `--opt value` and `--opt=value` give the same exit code and stdout, for
    negative floats such as -1e-05 or -inf too.
    """
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    if code == 0 or out:
        assert_parses(argv[0], argv, out)
    joined = [argv[0], *(f"{opt}={value}" for opt, value in zip(argv[1::2], argv[2::2]))]
    assert run_in_process(joined)[:2] == (code, out), argv
