"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q bench"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

from symqkd import attack, cli, rates, smallmat  # noqa: E402


def cli_output(op: Op) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(op.argv) == 0
    return buf.getvalue()


def first(name: str, pred=lambda op: True, n: int = 200) -> Op:
    return next(op for op in islice(workloads.WORKLOADS[name](3), n) if pred(op))


# Generators


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_in_its_seed(name):
    gen = workloads.WORKLOADS[name]
    assert list(islice(gen(11), 50)) == list(islice(gen(11), 50))
    if name != "rate_curve":  # rate_curve's seed only picks the phase of its 4-op cycle
        assert list(islice(gen(11), 50)) != list(islice(gen(12), 50))


def test_rate_curve_cycles_protocol_and_format():
    ops = list(islice(workloads.rate_curve(0), 4))
    assert {(op.get("protocol"), op.get("format")) for op in ops} == {
        (p, f) for p in ("bb84", "six-state") for f in ("csv", "json")
    }
    assert all(op.get("grid") == "200" for op in ops)


def test_point_queries_blocks_have_the_exact_mix():
    ops = list(islice(workloads.point_queries(5), 100))
    for i in range(0, 100, 10):
        block = ops[i : i + 10]
        assert sum(op.kind == "verify/bb84" for op in block) == 4
        assert sum(op.kind == "verify/six-state" for op in block) == 2
        assert sum(op.command == "minimize" for op in block) == 3
        assert sum(op.command == "threshold" for op in block) == 1
    assert all(op.get("y") is None for op in ops if op.kind == "verify/six-state")


def test_monte_carlo_draws_64_bit_seeds():
    seeds = [int(op.get("seed")) for op in islice(workloads.monte_carlo(1), 50)]
    assert all(0 <= s < 2**64 for s in seeds) and max(seeds) >= 2**60


# Output checks: each accepts the real output and rejects a tampered one.


def replace_number(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("protocol", ["bb84", "six-state"])
def test_curve_check_rejects_a_row_altered_by_1e_6(protocol, fmt):
    op = Op("curve", (("protocol", protocol), ("grid", "50"), ("format", fmt)))
    out = cli_output(op)
    checks.check(op, out)
    if fmt == "csv":
        lines = out.splitlines()
        cells = lines[20].split(",")
        cells[5] = repr(float(cells[5]) + 1e-6)
        lines[20] = ",".join(cells)
        bad = "\n".join(lines) + "\n"
    else:
        rows = json.loads(out)
        rows[19]["R_DW_numeric"] += 1e-6
        bad = json.dumps(rows)
    with pytest.raises(checks.CheckError):
        checks.check(op, bad)


def test_curve_check_rejects_a_missing_row():
    op = Op("curve", (("protocol", "bb84"), ("grid", "20"), ("format", "csv")))
    out = cli_output(op)
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check(op, "\n".join(out.splitlines()[:-1]) + "\n")


@pytest.mark.parametrize("protocol", ["bb84", "six-state"])
def test_verify_check_rejects_a_large_residual(protocol):
    op = first("point_queries", lambda op: op.kind == f"verify/{protocol}")
    out = cli_output(op)
    checks.check(op, out)
    lines = out.splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 2e-09"
    with pytest.raises(checks.CheckError):
        checks.check(op, "\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="missing"):
        checks.check(op, "\n".join(out.splitlines()[1:]) + "\n")


def test_minimize_check_rejects_a_shifted_rate():
    op = first("point_queries", lambda op: op.command == "minimize")
    out = cli_output(op)
    checks.check(op, out)
    r_min = next(line for line in out.splitlines() if line.startswith("R_min"))
    value = float(r_min.split(":")[1])
    with pytest.raises(checks.CheckError, match="R_min"):
        checks.check(op, out.replace(r_min, f"R_min:    {value + 1e-6!r}"))


def test_threshold_check_rejects_a_wrong_root():
    op = Op("threshold", (("protocol", "bb84"),))
    out = cli_output(op)
    checks.check(op, out)
    with pytest.raises(checks.CheckError, match="D_star"):
        checks.check(op, replace_number(out, "0.110028", "0.110030"))


def test_simulate_check_rejects_tampered_records():
    op = first("monte_carlo")
    op = Op(op.command, tuple((k, "100000" if k == "rounds" else v) for k, v in op.args))
    out = cli_output(op)
    checks.check(op, out)
    checks.check_draw_contract(op, out)
    rec = json.loads(out)
    for key, value in [
        ("sifted_count", rec["estimation_count"] - 1),  # below estimation_count
        ("sifted_count", rec["rounds"] + 1),
        ("D_analytic", rec["D_analytic"] + 1e-6),
        ("qber_hat", rec["D_analytic"] + 7 * rec["qber_se"]),
        ("rng_name", "mt19937"),
    ]:
        with pytest.raises(checks.CheckError):
            checks.check(op, json.dumps({**rec, key: value}))
    # A sifted_count that moves by one is still plausible, but breaks the draw contract.
    with pytest.raises(checks.CheckError, match="sifted_count"):
        checks.check_draw_contract(op, json.dumps({**rec, "sifted_count": rec["sifted_count"] + 1}))


def test_reference_formulas():
    assert checks.rate("bb84", 0.110028) == pytest.approx(0.0, abs=1e-5)
    assert checks.rate("six-state", 0.126193) == pytest.approx(0.0, abs=1e-5)
    for d in (0.0, 0.05, 0.2, 0.6):
        six = 1 + 1.5 * d * (math.log2(d / 2) if d else 0) + (1 - 1.5 * d) * math.log2(1 - 1.5 * d)
        assert checks.rate("six-state", d) == pytest.approx(six, abs=1e-12)


# Tracer


def test_tracer_patches_every_binding_and_restores_it():
    from tracer import Tracer

    bound = {"hermitian_eigenvalues": (smallmat, rates), "projector": (smallmat, attack, cli)}
    originals = {name: getattr(smallmat, name) for name in bound}
    for name, modules in bound.items():  # each function is bound under several names
        assert all(getattr(m, name) is originals[name] for m in modules)
    tracer = Tracer()
    tracer.install(0)
    try:
        for name, modules in bound.items():
            assert all(getattr(m, name) is not originals[name] for m in modules)
        assert "rates.binary_entropy" not in tracer.names
        cli_output(Op("verify", (("protocol", "bb84"), ("x", "0.7"), ("y", "1.9"))))
    finally:
        tracer.remove()
    for name, modules in bound.items():
        assert all(getattr(m, name) is originals[name] for m in modules)
    calls, self_ns = tracer.take()
    named = dict(zip(tracer.names, calls))
    assert named["cli.main"] == 1
    assert named["smallmat.hermitian_eigenvalues"] == 5  # 4 in dw_rate_numeric, 1 for rate_identity
    assert named["attack.attack_isometry"] == 3
    assert all(s >= 0 for s in self_ns)
    assert len(tracer.kept) == sum(calls)


# The benchmark's declared workloads and metrics


def test_every_declared_workload_has_a_generator():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_computed(trace, capsys):
    # --seconds 0: the shortest run, 100 timed ops untraced or one traced op.
    assert run.main(["--workload", "point_queries", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == list(run.declared_units(section))
    if not trace:  # end-to-end metrics are never 0
        assert all(m["value"] > 0 for m in result["metrics"].values())
