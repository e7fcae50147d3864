"""Output checks that gate every benchmark op.

Every check compares the CLI's printed output against the benchmark's own
reference formulas, never against the package's code, with the
tolerances of the package's acceptance suite: 1e-9 on rates and
residuals, 1e-6 on thresholds, 6 sigma on Monte Carlo statistics. Printed
numbers carry 12 significant digits, far inside those tolerances.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import Op

TOL = 1e-9
THRESHOLD_TOL = 1e-6
Z_MAX = 6.0

THRESHOLDS = {"bb84": 0.110028, "six-state": 0.126193}
BASES = {"bb84": ("Z", "X"), "six-state": ("Z", "X", "Y")}
CONDITIONS = ("F_norm", "D_norm", "FD_ortho", "FF_overlap", "DD_overlap", "FD_cross")
CURVE_COLUMNS = ("x", "y", "D", "I_AB", "chi_AE", "R_DW_numeric", "R_DW_closed", "abs_diff")
SIM_KEYS = {
    "protocol",
    "x",
    "y",
    "D_analytic",
    "rounds",
    "seed",
    "sifted_count",
    "sift_fraction",
    "qber_hat",
    "qber_se",
    "estimation_count",
    "rng_name",
}
RNG_NAME = "numpy-pcg64"
DRAWS_PER_ROUND = 5
ESTIMATION_FRACTION = 0.1  # the simulator's default; the CLI does not set it
REFERENCE_BLOCK = 2**18  # rounds drawn at a time by reference_counts


class CheckError(Exception):
    """An op's output disagrees with the reference."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(name: str, got: float, want: float, tol: float = TOL) -> None:
    _expect(math.isfinite(got) and abs(got - want) <= tol, f"{name} = {got!r}, expected {want!r} within {tol:g}")


# Reference formulas, written independently of the package.


def h(p: float) -> float:
    """Binary entropy in bits."""
    p = min(max(p, 0.0), 1.0)
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def qber(protocol: str, x: float, y: float | None = None) -> float:
    cx = math.cos(x)
    if protocol == "six-state":
        return (1.0 - cx) / (2.0 - cx)
    cy = cx if y is None else math.cos(y)
    return (1.0 - cx) / (2.0 - cx + cy)


def rate(protocol: str, d: float) -> float:
    """Devetak-Winter rate at QBER d: 1 - 2H(D) for BB84; for six-state the
    (1-D)[1 - H(D/(2(1-D)))] - H(D) form, not the package's primary one."""
    if protocol == "bb84":
        return 1.0 - 2.0 * h(d)
    return (1.0 - d) * (1.0 - h(d / (2.0 * (1.0 - d)))) - h(d)


# Per-command checks. Each takes the op and its stdout and raises CheckError.


def _curve_rows(op: Op, out: str) -> list[dict[str, float]]:
    if op.get("format") == "json":
        rows = json.loads(out)
        _expect(isinstance(rows, list), "curve JSON is not a list")
        for row in rows:
            _expect(tuple(row) == CURVE_COLUMNS, f"curve JSON keys {tuple(row)}")
        return [{k: float(v) for k, v in row.items()} for row in rows]
    reader = csv.reader(io.StringIO(out))
    _expect(tuple(next(reader)) == CURVE_COLUMNS, "curve CSV header")
    return [dict(zip(CURVE_COLUMNS, map(float, line), strict=True)) for line in reader]


def check_curve(op: Op, out: str) -> None:
    protocol, grid = op.get("protocol"), int(op.get("grid"))
    rows = _curve_rows(op, out)
    _expect(len(rows) == grid, f"curve has {len(rows)} rows, expected {grid}")
    x_hi = math.pi / 2 if protocol == "bb84" else math.pi
    for i, r in enumerate(rows):
        x = r["x"]
        _close(f"row {i} x", x, x_hi * i / (grid - 1))
        _close(f"row {i} y", r["y"], x if protocol == "bb84" else math.pi / 2)
        d = qber(protocol, x)
        _close(f"row {i} D", r["D"], d)
        _close(f"row {i} I_AB", r["I_AB"], 1.0 - h(d))
        _close(f"row {i} R_DW_numeric", r["R_DW_numeric"], rate(protocol, d))
        _close(f"row {i} numeric - closed", r["R_DW_numeric"] - r["R_DW_closed"], 0.0)
        _close(f"row {i} chi_AE", r["chi_AE"], r["I_AB"] - r["R_DW_numeric"])
        _close(f"row {i} abs_diff", r["abs_diff"], abs(r["R_DW_numeric"] - r["R_DW_closed"]))


def _colon_table(out: str) -> dict[str, str]:
    """``name: value`` lines, as ``threshold`` and ``minimize`` print them."""
    return {key.strip(): value.strip() for key, _, value in (line.partition(":") for line in out.splitlines())}


def check_verify(op: Op, out: str) -> None:
    protocol = op.get("protocol")
    # Lines are "<basis>:<condition>  <value>": the key itself holds a colon.
    table = {key: float(value) for key, value in (line.rsplit(None, 1) for line in out.splitlines())}
    expected = {f"{b}:{c}" for b in BASES[protocol] for c in CONDITIONS}
    expected |= {f"{b}:{c}" for b in BASES[protocol] for c in ("channel_contraction", "complementary_output")}
    expected |= {"rate_identity", "max_residual"}
    _expect(set(table) == expected, f"verify rows {sorted(set(table) ^ expected)} missing or unexpected")
    worst = table.pop("max_residual")
    _expect(all(0.0 <= v <= TOL for v in table.values()), "a verify residual exceeds 1e-9 or is negative")
    _expect(worst == max(table.values()), "max_residual is not the largest residual")


def check_minimize(op: Op, out: str) -> None:
    d_target = float(op.get("d-target"))
    t = {k: float(v) for k, v in _colon_table(out).items()}
    _expect(set(t) == {"D_target", "x_best", "y_best", "R_min", "gap"}, f"minimize rows {sorted(t)}")
    _close("D_target", t["D_target"], d_target)
    _close("gap", t["gap"], 0.0)
    _close("R_min", t["R_min"], rate("bb84", d_target))
    _close("QBER at (x_best, y_best)", qber("bb84", t["x_best"], t["y_best"]), d_target)


def check_threshold(op: Op, out: str) -> None:
    protocol = op.get("protocol")
    t = _colon_table(out)
    _expect(set(t) == {"protocol", "D_star", "residual", "iterations"}, f"threshold rows {sorted(t)}")
    _expect(t["protocol"] == protocol, f"threshold protocol {t['protocol']!r}")
    _close("D_star", float(t["D_star"]), THRESHOLDS[protocol], THRESHOLD_TOL)
    _close("residual", float(t["residual"]), 0.0)
    _expect(int(t["iterations"]) > 0, "threshold reports no bisection iterations")


def check_simulate(op: Op, out: str) -> None:
    protocol, x = op.get("protocol"), float(op.get("x"))
    rounds, seed = int(op.get("rounds")), int(op.get("seed"))
    rec = json.loads(out)
    _expect(set(rec) == SIM_KEYS, f"simulate keys {sorted(set(rec) ^ SIM_KEYS)} missing or unexpected")
    _expect(rec["protocol"] == protocol and rec["rounds"] == rounds and rec["seed"] == seed, "simulate echo")
    _expect(rec["rng_name"] == RNG_NAME, f"rng_name {rec['rng_name']!r}")
    _close("x", rec["x"], x)
    _close("y", rec["y"], x if protocol == "bb84" else math.pi / 2)
    d = qber(protocol, x)
    _close("D_analytic", rec["D_analytic"], d)
    sifted, est = rec["sifted_count"], rec["estimation_count"]
    _expect(all(isinstance(n, int) for n in (sifted, est)), "simulate counts are not integers")
    _expect(0 <= est <= sifted <= rounds, f"counts out of order: {est} <= {sifted} <= {rounds}")
    p = 1.0 / len(BASES[protocol])
    sigma = math.sqrt(rounds * p * (1.0 - p))
    _expect(abs(sifted - rounds * p) <= Z_MAX * sigma, f"sifted_count {sifted} is over 6 sigma from {rounds * p}")
    _close("sift_fraction", rec["sift_fraction"], sifted / rounds)
    se = rec["qber_se"]
    _expect(se > 0.0 and abs(rec["qber_hat"] - d) / se <= Z_MAX, f"qber_hat {rec['qber_hat']} is over 6 se from {d}")
    _close("qber_se", se, math.sqrt(rec["qber_hat"] * (1.0 - rec["qber_hat"]) / est))


CHECKS = {
    "curve": check_curve,
    "verify": check_verify,
    "minimize": check_minimize,
    "threshold": check_threshold,
    "simulate": check_simulate,
}


def check(op: Op, out: str) -> None:
    """Raise CheckError unless ``out`` is a correct output of ``op``."""
    try:
        CHECKS[op.command](op, out)
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        raise CheckError(f"unparsable {op.command} output: {exc!r}") from exc


def reference_counts(op: Op) -> tuple[int, int, int]:
    """(sifted, estimation, estimation errors) of a simulate op, from the draw contract.

    Round i consumes uniforms 5i..5i+4 of one PCG64 stream seeded with the
    op's seed: Alice's bit, Alice's basis, Bob's basis, the outcome and the
    estimation pick. Bases are floor(u * n_bases); a matching-basis round
    is an error when the outcome uniform falls below the QBER.
    """
    protocol, rounds = op.get("protocol"), int(op.get("rounds"))
    n_bases = len(BASES[protocol])
    d = qber(protocol, float(op.get("x")))
    gen = np.random.Generator(np.random.PCG64(int(op.get("seed"))))
    sifted = est = err = 0
    for start in range(0, rounds, REFERENCE_BLOCK):
        u = gen.random((min(REFERENCE_BLOCK, rounds - start), DRAWS_PER_ROUND))
        alice = np.minimum((u[:, 1] * n_bases).astype(np.intp), n_bases - 1)
        bob = np.minimum((u[:, 2] * n_bases).astype(np.intp), n_bases - 1)
        kept = alice == bob
        pick = kept & (u[:, 4] < ESTIMATION_FRACTION)
        sifted += int(kept.sum())
        est += int(pick.sum())
        err += int((pick & (u[:, 3] < d)).sum())
    return sifted, est, err


def check_draw_contract(op: Op, out: str) -> None:
    """Check a simulate op's counts against ``reference_counts``."""
    rec = json.loads(out)
    sifted, est, err = reference_counts(op)
    _expect(rec["sifted_count"] == sifted, f"sifted_count {rec['sifted_count']}, draw contract gives {sifted}")
    _expect(rec["estimation_count"] == est, f"estimation_count {rec['estimation_count']}, contract gives {est}")
    _close("qber_hat", rec["qber_hat"], err / est, 1e-12)
