import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symqkd import attack, cli, rates
from symqkd.states import Protocol


def run_cli(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    cmd = [sys.executable, "-m", "symqkd", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def avx512_ufuncs() -> bool:
    """Whether numpy dispatches its float64 ufuncs (cos, arccos, log2, ...) to AVX-512."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    # X86_V4 is the AVX-512 dispatch target from numpy 2.3 on, AVX512_SKX before.
    return bool(__cpu_features__.get("X86_V4", __cpu_features__.get("AVX512_SKX")))


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    for command in ("verify", "curve", "threshold", "minimize", "simulate"):
        assert command in cp.stdout


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
        cp = run_cli("verify", "--protocol", "bb84", "--x", "0.7", "--y", "0.7")
        assert cp.returncode == 0, cp.stderr
        self.assert_rows(cp.stdout, "ZX")

    def test_six_state_passes_including_y_basis(self):
        cp = run_cli("verify", "--protocol", "six-state", "--x", "1.0")
        assert cp.returncode == 0, cp.stderr
        self.assert_rows(cp.stdout, "ZXY")

    def test_six_state_accepts_y_as_printed_by_curve(self):
        curve = run_cli("curve", "--protocol", "six-state", "--grid", "3")
        y = curve.stdout.splitlines()[1].split(",")[1]
        assert y == "1.57079632679"
        cp = run_cli("verify", "--protocol", "six-state", "--x", "1.0", "--y", y)
        assert cp.returncode == 0, cp.stderr

    def test_six_state_rejects_free_y(self):
        cp = run_cli("verify", "--protocol", "six-state", "--x", "1.0", "--y", "0.3")
        assert cp.returncode == 2
        assert "pi/2" in cp.stderr

    def test_bb84_y_defaults_to_x(self):
        cp = run_cli("verify", "--protocol", "bb84", "--x", "0.9")
        assert cp.returncode == 0, cp.stderr

    def test_bb84_y_equals_pi_rejected(self):
        # QBER is 1 on this edge, although (1 - cos x)/(1 - cos x) rounds below 1 here.
        cp = run_cli("verify", "--protocol", "bb84", "--x", "1.5707963267948966", "--y", "3.141592653589793")
        assert cp.returncode == 2
        assert "y = pi" in cp.stderr


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
    def test_verify_builds_it_once(self, argv, builds, capsys):
        assert cli.main(["verify", *argv]) == 0
        assert len(builds) == 1

    def test_simulate_never_builds_it(self, builds, capsys):
        for protocol in ("bb84", "six-state"):
            assert cli.main(["simulate", "--protocol", protocol, "--x", "0.5", "--rounds", "1000"]) == 0
        assert builds == []


class TestCurve:
    HEADER = "x,y,D,I_AB,chi_AE,R_DW_numeric,R_DW_closed,abs_diff"

    def test_bb84_grid_three(self, tmp_path):
        out = tmp_path / "curve.csv"
        cp = run_cli("curve", "--protocol", "bb84", "--grid", "3", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
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
        cp = run_cli("curve", "--protocol", "six-state", "--grid", "60", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        rows = out.read_text().strip().splitlines()[1:]
        diffs = [float(r.split(",")[-1]) for r in rows]
        assert max(diffs) <= 1e-9

    def test_json_rows_share_keys(self):
        cp = run_cli("curve", "--protocol", "bb84", "--grid", "4", "--format", "json")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
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
    def test_output_pinned_to_stdlib_formatting(self, protocol, grid, capsys):
        for fmt, expected in self.stdlib_reference(rates.rate_curve(protocol, grid)).items():
            argv = ["curve", "--protocol", protocol.value, "--grid", str(grid), "--format", fmt]
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == expected

    # Cells on every side of the JSON token rule: integral values ('.0' appended),
    # 1e-4 and the %.12g exponents just below it, a subnormal and a normal at the
    # bottom of the range (a subnormal's repr has fewer digits), and values at
    # and past 1e12, where %.12g switches to an exponent and repr does not.
    EDGE_CELLS = (
        0.0, -0.0, 1.0, 2.0, 1e-05, 0.0001, 9.99999999999e-05, 5e-324,
        2.2250738585072014e-308, 123456789012.0, 1.5e12, 1e16,
    )

    def test_json_token_rule_on_edge_cells(self, monkeypatch, capsys):
        k = len(self.EDGE_CELLS)
        columns = [np.roll(self.EDGE_CELLS, -j) for j in range(7)]  # each cell in every column
        table = np.column_stack(columns + [np.abs(columns[5] - columns[6])])
        monkeypatch.setattr(rates, "rate_curve", lambda protocol, grid: table)
        for fmt, expected in self.stdlib_reference(table).items():
            assert cli.main(["curve", "--protocol", "bb84", "--grid", str(k), "--format", fmt]) == 0
            assert capsys.readouterr().out == expected

    def test_unwritable_path_is_io_failure(self):
        cp = run_cli("curve", "--protocol", "bb84", "--grid", "3", "--out", "/nonexistent/dir/x.csv")
        assert cp.returncode == 1

    def test_tiny_grid_rejected(self):
        cp = run_cli("curve", "--protocol", "bb84", "--grid", "1")
        assert cp.returncode == 2


class TestThreshold:
    def test_bb84(self):
        cp = run_cli("threshold", "--protocol", "bb84")
        assert cp.returncode == 0, cp.stderr
        assert "0.110028" in cp.stdout

    def test_six_state(self):
        cp = run_cli("threshold", "--protocol", "six-state")
        assert cp.returncode == 0, cp.stderr
        assert "0.126193" in cp.stdout

    def test_six_state_threshold_larger(self):
        d_bb = float(run_cli("threshold", "--protocol", "bb84").stdout.splitlines()[1].split()[-1])
        d_six = float(
            run_cli("threshold", "--protocol", "six-state").stdout.splitlines()[1].split()[-1]
        )
        assert d_six > d_bb

    @pytest.mark.parametrize(
        "protocol, text",
        [
            ("bb84", "protocol:   bb84\nD_star:     0.110028\nresidual:   -4.85174123099e-11\niterations: 33\n"),
            ("six-state", "protocol:   six-state\nD_star:     0.126193\nresidual:   7.42017558508e-11\niterations: 33\n"),
        ],
    )
    def test_stdout_pinned(self, protocol, text, capsys):
        assert cli.main(["threshold", "--protocol", protocol]) == 0
        assert capsys.readouterr().out == text


class TestMinimize:
    def test_five_percent_gap(self):
        cp = run_cli("minimize", "--d-target", "0.05", "--grid", "800")
        assert cp.returncode == 0, cp.stderr
        fields = dict(line.split(":") for line in cp.stdout.strip().splitlines())
        assert float(fields["gap"]) <= 1e-6

    @pytest.mark.parametrize("d_target", ["1e-10", "1e-12", "1e-15"])
    def test_tiny_target_is_not_a_degenerate_angle(self, d_target, capsys):
        # cos(x) rounds to 1 at the first scan points here; they have QBER 0,
        # not the target, and must be skipped, not handed to the rate formula.
        assert cli.main(["minimize", "--d-target", d_target, "--grid", "2000"]) == 0
        fields = dict(line.split(":") for line in capsys.readouterr().out.strip().splitlines())
        assert float(fields["gap"]) <= 1e-9
        assert abs(float(fields["x_best"]) / math.acos(1.0 - 2.0 * float(d_target)) - 1.0) <= 0.015

    @pytest.mark.parametrize("d_target", ["1e-16", "1e-17", "5e-324"])
    def test_target_below_the_floor_exits_two(self, d_target, capsys):
        # Below 1e-15, cos(x) rounds to 1 near x* and no scan resolves the argmin.
        assert cli.main(["minimize", "--d-target", d_target, "--grid", "2000"]) == 2
        assert capsys.readouterr().err == f"error: target QBER {d_target} below minimize's floor 1e-15\n"

    def test_quarter_lands_on_diagonal(self):
        cp = run_cli("minimize", "--d-target", "0.25", "--grid", "800")
        fields = dict(line.split(":") for line in cp.stdout.strip().splitlines())
        assert abs(float(fields["x_best"]) - math.pi / 3) <= 1e-4
        assert abs(float(fields["y_best"]) - math.pi / 3) <= 1e-4

    def test_out_of_domain_rejected(self):
        cp = run_cli("minimize", "--d-target", "0.6", "--grid", "800")
        assert cp.returncode == 2

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
    def test_stdout_pinned(self, fields, capsys):
        d_target, grid = fields[:2]
        printed = fields[2:] if avx512_ufuncs() else self.WITHOUT_AVX512.get((d_target, grid), fields[2:])
        assert cli.main(["minimize", "--d-target", d_target, "--grid", grid]) == 0
        assert capsys.readouterr().out == self.RECORD % (d_target, *printed)


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("simulate", "--protocol", "bb84", "--x", "0.92", "--rounds", "100000", "--seed", "42")
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bb84_qber_within_four_sigma(self, tmp_path):
        out = tmp_path / "sim.json"
        x = math.acos(1 - 2 * 0.1)
        cp = run_cli(
            "simulate", "--protocol", "bb84", "--x", str(x),
            "--rounds", "200000", "--seed", "42", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        record = json.loads(out.read_text())
        assert abs(record["qber_hat"] - 0.1) <= 4 * record["qber_se"]
        assert record["rng_name"] == "numpy-pcg64"

    def test_six_state_sift_fraction(self, tmp_path):
        out = tmp_path / "sim.json"
        cp = run_cli(
            "simulate", "--protocol", "six-state", "--x", "1.0",
            "--rounds", "200000", "--seed", "11", "--out", str(out),
        )
        assert cp.returncode == 0, cp.stderr
        record = json.loads(out.read_text())
        sift_se = math.sqrt((1 / 3) * (2 / 3) / record["rounds"])
        assert abs(record["sift_fraction"] - 1 / 3) <= 4 * sift_se

    def test_zero_rounds_rejected(self):
        cp = run_cli("simulate", "--protocol", "bb84", "--x", "0.5", "--rounds", "0")
        assert cp.returncode == 2

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
    def test_stdout_pinned(self, fields, capsys):
        protocol, x, _, _, rounds, seed = fields[:6]
        argv = ["simulate", "--protocol", protocol, "--x", x, "--rounds", rounds, "--seed", seed]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == self.RECORD % fields


class TestEnvironment:
    def test_unknown_flags_exit_two(self):
        assert run_cli("threshold", "--protocol", "b92").returncode == 2
        assert run_cli("frobnicate").returncode == 2

    def test_logging_goes_to_stderr_only(self):
        cp = run_cli(
            "curve", "--protocol", "bb84", "--grid", "3",
            env_extra={"QKD_LOG": "info"},
        )
        assert cp.returncode == 0
        assert "INFO" in cp.stderr
        assert cp.stdout.splitlines()[0] == TestCurve.HEADER

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--protocol", "bb84", "--grid", "1000000000000"],
            ["minimize", "--d-target", "0.1", "--grid", "1000000000000"],
        ],
    )
    def test_size_too_large_for_memory_exits_two(self, argv, monkeypatch, capsys):
        """A --grid the machine cannot hold is an invalid argument: one error line, no traceback."""
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.delenv("QKD_LOG", raising=False)
        monkeypatch.setattr(rates, "rate_curve", out_of_memory)
        monkeypatch.setattr(rates, "minimize_family_rate", out_of_memory)
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_each_in_process_call_applies_its_own_log_level_and_stderr(self, monkeypatch):
        monkeypatch.delenv("QKD_LOG", raising=False)
        with contextlib.redirect_stderr(io.StringIO()) as first:
            assert cli.main(["threshold", "--protocol", "bb84"]) == 0
        monkeypatch.setenv("QKD_LOG", "info")
        with contextlib.redirect_stderr(io.StringIO()) as second:
            assert cli.main(["threshold", "--protocol", "bb84"]) == 0
        assert first.getvalue() == ""
        assert second.getvalue().startswith("INFO symqkd: bisection converged in ")

    def test_repeated_in_process_calls_match_fresh_processes(self, monkeypatch):
        """One process's parser serves every call: each call matches a fresh `python -m symqkd`."""
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        monkeypatch.delenv("QKD_LOG", raising=False)
        calls = [
            ["verify", "--protocol", "bb84", "--x", "1.0", "--y", "0.5"],
            ["verify", "--protocol", "bb84", "--x", "1.0"],  # --y must not leak from the call before
            ["threshold", "--protocol", "b92"],
            ["curve", "--protocol", "bb84", "--grid", "1"],
            ["--help"],
            ["simulate", "--protocol", "six-state", "--x", "0.8", "--rounds", "2000", "--seed", "5"],
            ["threshold", "--protocol", "bb84"],
        ]
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            fresh = run_cli(*argv)
            assert (code, out.getvalue(), err.getvalue()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
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
# reaches minimize's floor of 100 more often than the first alone.
GRIDS = st.one_of(st.integers(-3, 5000), st.integers(90, 300)).map(str)


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
        argv += ["--rounds", str(draw(st.integers(-3, 2**16))), "--seed", str(draw(st.integers(-1, 2**64)))]
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


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one cli.main call at the default log level."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("QKD_LOG", raising=False)
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    return code, out.getvalue(), err.getvalue()


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
