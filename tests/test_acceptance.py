"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all). Tolerances are fixed here and nowhere else.
"""

import math

import numpy as np

from symqkd.attack import (
    BASE_CONDITIONS,
    AttackParams,
    attack_isometry,
    bob_state,
    branch_states,
    eve_average,
    eve_state,
    verify_symmetry,
)
from symqkd.protosim import SimConfig, run_simulation
from symqkd.rates import (
    binary_entropy,
    branch_eigenvalue,
    closed_rate_six_state,
    closed_rate_six_state_alt,
    dw_rate_numeric,
    find_threshold,
    minimize_family_rate,
    von_neumann_entropy,
)
from symqkd.smallmat import hermitian_eigenvalues, is_isometry
from symqkd.states import Protocol, basis_labels


def report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


GRID_X = np.linspace(0.0, math.pi, 202)[1:-1]  # 200 interior points


def test_criterion_1_bb84_closed_form_theorem():
    worst = 0.0
    for x in GRID_X:
        params = AttackParams.bb84(float(x), float(x))
        numeric = dw_rate_numeric(params)["R_DW"]
        closed = 1.0 - 2.0 * binary_entropy(params.qber)
        worst = max(worst, abs(numeric - closed))
    report(1, f"BB84 numeric pipeline vs 1-2H(D) on 200 x values (max diff {worst:.2e})", worst <= 1e-9)


def test_criterion_2_six_state_closed_form_theorem():
    worst = 0.0
    for x in GRID_X:
        params = AttackParams.six_state(float(x))
        worst = max(worst, abs(dw_rate_numeric(params)["R_DW"] - closed_rate_six_state(params.qber)))
    worst_eq = max(
        abs(closed_rate_six_state(float(d)) - closed_rate_six_state_alt(float(d)))
        for d in np.linspace(0.0, 2.0 / 3.0, 1000)
    )
    ok = worst <= 1e-9 and worst_eq <= 1e-12
    report(
        2,
        f"six-state numeric vs closed form (max diff {worst:.2e}); "
        f"two closed forms agree over 1000 QBER points (max diff {worst_eq:.2e})",
        ok,
    )


def test_criterion_3_security_thresholds():
    t_bb = find_threshold(Protocol.BB84)
    t_six = find_threshold(Protocol.SIX_STATE)
    ok = abs(t_bb.D_star - 0.110028) <= 1e-6 and abs(t_six.D_star - 0.126193) <= 1e-6
    report(
        3,
        f"thresholds {t_bb.D_star:.6f} (target 0.110028) and {t_six.D_star:.6f} (target 0.126193)",
        ok,
    )


def test_criterion_4_symmetry_condition_suite():
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(50):
        x, y = rng.uniform(0.05, math.pi - 0.05, size=2)
        worst = max(worst, *verify_symmetry(AttackParams.bb84(float(x), float(y))).values())
        worst = max(worst, *verify_symmetry(AttackParams.six_state(float(x))).values())
    # A BB84 attack is six-state symmetric only on the line y = pi/2 (and at
    # x = 0); off it, its per-state conditions visibly fail in the Y basis.
    violations = []
    for _ in range(50):
        x, y = rng.uniform(0.05, math.pi - 0.05, size=2)
        if abs(x - y) < 0.1:
            continue
        residuals = verify_symmetry(AttackParams.bb84(float(x), float(y)), bases=("Y",))
        violations.append(max(r for (_, c), r in residuals.items() if c in BASE_CONDITIONS))
    ok = worst <= 1e-12 and max(violations) > 1e-3
    report(
        4,
        f"50 random draws satisfy all conditions in protocol bases (max residual {worst:.2e}); "
        f"x != y breaks the Y basis (max violation {max(violations):.2e})",
        ok,
    )


def test_criterion_5_structural_invariants():
    rng = np.random.default_rng(513)
    draws = [AttackParams.bb84(*map(float, rng.uniform(0.1, math.pi - 0.1, size=2))) for _ in range(10)]
    draws += [AttackParams.six_state(float(x)) for x in rng.uniform(0.1, math.pi - 0.1, size=10)]
    ok = True
    notes = []
    for params in draws:
        v = attack_isometry(params)
        ok &= is_isometry(v, 1e-12)
        states = [eve_average(v, "Z")]
        for basis in params.protocol.bases:
            for u in basis_labels(basis):
                states += [bob_state(v, u), eve_state(v, u)]
        for rho in states:
            lam = hermitian_eigenvalues(rho)
            ok &= lam.min() >= -1e-12 and abs(lam.sum() - 1.0) <= 1e-12
        for basis in params.protocol.bases:
            for u in basis_labels(basis):
                ok &= abs(von_neumann_entropy(eve_state(v, u)) - binary_entropy(params.qber)) <= 1e-9
        rho_f, rho_d = branch_states(v, "Z")
        ok &= abs(np.trace(rho_f @ rho_d)) <= 1e-12
        lam_f = hermitian_eigenvalues(rho_f)[1]
        lam_d = hermitian_eigenvalues(rho_d)[1]
        ok &= abs(lam_f - branch_eigenvalue(params.x)) <= 1e-10
        ok &= abs(lam_d - branch_eigenvalue(params.y)) <= 1e-10
    notes.append(f"{len(draws)} attacks checked")
    report(5, "isometry, density-matrix, conditional-entropy and branch-spectrum invariants (" + "; ".join(notes) + ")", bool(ok))


def test_criterion_6_family_minimization():
    grid = 400
    ok = True
    gaps = []
    for d in (0.02, 0.05, 0.08, 0.11, 0.25):
        best = minimize_family_rate(d, grid)
        target = 1.0 - 2.0 * binary_entropy(d)
        step = math.acos(max(-1.0, (1.0 - 3.0 * d) / (1.0 - d))) / grid
        gaps.append(abs(best["R_min"] - target))
        ok &= abs(best["R_min"] - target) <= 1e-6
        ok &= abs(best["x_best"] - best["y_best"]) <= step
    report(6, f"minimum at x = y with rate 1-2H(D) for five targets (max gap {max(gaps):.2e})", bool(ok))


def test_criterion_7_monte_carlo():
    d_bb = 0.1
    cfg_bb = SimConfig(params=AttackParams.bb84(math.acos(1 - 2 * d_bb)), rounds=1_000_000, seed=424242)
    res_bb = run_simulation(cfg_bb)
    d_six = 1.0 / 3.0
    cfg_six = SimConfig(
        params=AttackParams.six_state(math.acos((1 - 2 * d_six) / (1 - d_six))),
        rounds=1_000_000,
        seed=90210,
    )
    res_six = run_simulation(cfg_six)

    ok = abs(res_bb["qber_hat"] - d_bb) <= 4 * res_bb["qber_se"]
    ok &= abs(res_six["qber_hat"] - d_six) <= 4 * res_six["qber_se"]
    se_half = math.sqrt(0.25 / cfg_bb.rounds)
    se_third = math.sqrt((1 / 3) * (2 / 3) / cfg_six.rounds)
    ok &= abs(res_bb["sift_fraction"] - 0.5) <= 4 * se_half
    ok &= abs(res_six["sift_fraction"] - 1 / 3) <= 4 * se_third
    ok &= run_simulation(cfg_bb) == res_bb and run_simulation(cfg_six) == res_six
    report(
        7,
        f"QBER estimates {res_bb['qber_hat']:.4f}/{res_six['qber_hat']:.4f} and sift fractions "
        f"{res_bb['sift_fraction']:.4f}/{res_six['sift_fraction']:.4f} within 4 sigma; reruns bit-identical",
        bool(ok),
    )
