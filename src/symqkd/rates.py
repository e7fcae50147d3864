"""Entropies, Holevo information, and Devetak-Winter secret-key rates.

Two independent routes to the same numbers live here. The numeric route
runs the full pipeline (attack isometry, Eve's states from ``attack.eve_state``,
eigenvalues, entropies, ``holevo_information``) and assembles R = I_AB - chi_AE.
The closed route evaluates the known key-rate formulas of the two protocols
directly, ``general_rate_bb84`` serving both ``rate_curve`` and the
fixed-QBER search. Their agreement over the whole attack family is the
main correctness check of the package. Each stage is one function.

Both routes take arrays as well as scalars: a batch of attacks runs as
one stack through the same code that evaluates a single attack, and every
domain and consistency check covers the whole batch.

All logarithms are base 2; entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attack import AttackParams, _qber_from_cosines, eve_state
from .smallmat import hermitian_eigenvalues
from .states import Protocol

__all__ = [
    "CURVE_COLUMNS",
    "Threshold",
    "binary_entropy",
    "branch_eigenvalue",
    "closed_rate_bb84",
    "closed_rate_six_state",
    "closed_rate_six_state_alt",
    "dw_rate_numeric",
    "find_threshold",
    "general_rate_bb84",
    "holevo_information",
    "minimize_family_rate",
    "rate_curve",
    "von_neumann_entropy",
]

_DOMAIN_SLACK = 1e-12
_EIG_CLAMP = -1e-12
_CHI_TOL = 1e-10  # round-off allowed below chi = 0
_RATE_CONSISTENCY_TOL = 1e-9
_BISECT_TOL = 1e-10
_LOOKAHEAD = 4  # golden-section steps whose points one array call evaluates ahead
_MIN_TARGET = 1e-15  # smallest minimize target; below it cos x rounds to 1 near x* = acos(1 - 2D)
_MAX_GRID = 2**40  # largest grid; no machine holds its arrays, and past 2**63 numpy's sizes overflow
CURVE_COLUMNS = ("x", "y", "D", "I_AB", "chi_AE", "R_DW_numeric", "R_DW_closed", "abs_diff")


def _in_domain(v, hi: float, what: str):
    """v clipped to [0, hi], a numpy scalar for scalar v; values beyond round-off are rejected."""
    a = np.asarray(v, dtype=float)[()]
    bad = ~((a >= -_DOMAIN_SLACK) & (a <= hi + _DOMAIN_SLACK))
    if bad.any():
        raise ValueError(f"{what} {np.asarray(a)[bad].flat[0]} outside [0, {hi:.4g}]")
    return np.minimum(np.maximum(a, 0.0), hi)


def _xlog2x(p):
    """p log2 p elementwise for p >= 0, with its limit 0 at p = 0."""
    return p * np.log2(p + (p == 0.0))


def _check_grid(grid: int, least: int) -> None:
    """Reject a grid that is no integer, below ``least`` or above ``_MAX_GRID``, before anything is allocated."""
    if not isinstance(grid, (int, np.integer)) or isinstance(grid, bool):
        raise ValueError(f"grid must be an integer, not {grid!r}")
    if grid < least:
        raise ValueError(f"grid must be at least {least}")
    if grid > _MAX_GRID:
        raise ValueError(f"grid must be at most 2**40, not {grid}")


def binary_entropy(p):
    """Shannon entropy of a bit, H(p) = -p log2 p - (1-p) log2 (1-p)."""
    p = _in_domain(p, 1.0, "probability")
    return -_xlog2x(p) - _xlog2x(1.0 - p)


def von_neumann_entropy(rho):
    """Entropy -Tr(rho log2 rho) of a density matrix, or of each in a stack, in bits.

    Eigenvalues in [-1e-12, 0] are clamped to zero (round-off); anything
    more negative, or a trace off unity, is rejected as a bug upstream.
    """
    lam = hermitian_eigenvalues(rho)
    if (lam < _EIG_CLAMP).any():
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {lam.min():.3e})")
    trace_error = np.abs(lam.sum(axis=-1) - 1.0)
    if (trace_error > 1e-12).any():
        raise ValueError(f"matrix trace is off 1 by {trace_error.max():.3e}")
    return -_xlog2x(np.maximum(lam, 0.0)).sum(axis=-1)


def holevo_information(states) -> tuple[np.ndarray, np.ndarray]:
    """(chi, S(rho_avg)) of each equiprobable pair of a (..., 2, n, n) stack, as ``attack.eve_state(v, "01")`` returns.

    chi = S(rho_avg) - [S(rho_0) + S(rho_1)] / 2 with rho_avg the pair's
    average; all three entropies come from one eigenvalue call. Tiny
    negative round-off is clamped to 0.
    """
    if np.ndim(states) < 3 or np.shape(states)[-3] != 2:
        raise ValueError(f"expected a (..., 2, n, n) stack of state pairs, got shape {np.shape(states)}")
    states = np.asarray(states)
    s = von_neumann_entropy(np.concatenate([0.5 * (states[..., :1, :, :] + states[..., 1:, :, :]), states], axis=-3))
    chi = s[..., 0] - 0.5 * (s[..., 1] + s[..., 2])
    if (chi < -_CHI_TOL).any():
        raise RuntimeError(f"Holevo information came out negative ({chi.min():.3e})")
    return np.maximum(chi, 0.0), s[..., 0]


def dw_rate_numeric(params: AttackParams) -> dict:
    """Devetak-Winter rate of an attack, or of every attack of a batch, from first principles.

    Pipeline: isometry -> Eve's reduced states -> eigenvalues -> entropies
    -> Holevo information; then R = I_AB - chi_AE with I_AB = 1 - H(D).
    The symmetric attack also forces R = 1 - S(rho_E); a violation of that
    identity signals an internal inconsistency and raises. Returns floats
    (one attack) or arrays (a batch) keyed I_AB, chi_AE, R_DW and
    identity_residual = |R_DW - (1 - S(rho_E))|.
    """
    chi, s_avg = holevo_information(eve_state(params.isometry, "01"))  # Eve's state for each Z-basis input
    i_ab = 1.0 - binary_entropy(params.qber)
    r = i_ab - chi
    residual = np.abs(r - (1.0 - s_avg))
    if (residual > _RATE_CONSISTENCY_TOL).any():
        raise RuntimeError("rate pipeline violates R = 1 - S(rho_E) for a symmetric attack")
    return {"I_AB": i_ab, "chi_AE": chi, "R_DW": r, "identity_residual": residual}


def branch_eigenvalue(angle):
    """Nontrivial eigenvalue (1 - |cos angle|)/2 of a two-vector branch average."""
    return _branch_from_cosine(np.cos(angle))


def _branch_from_cosine(c):
    """``branch_eigenvalue`` of the angle whose cosine is c."""
    return 0.5 * (1.0 - np.abs(c))


def closed_rate_bb84(d):
    """Closed-form BB84 key rate 1 - 2 H(D), valid for D in [0, 1] (the diagonal x = y, x in [0, pi))."""
    return 1.0 - 2.0 * binary_entropy(_in_domain(d, 1.0, "BB84 QBER"))


def closed_rate_six_state(d):
    """Closed-form six-state key rate for D in [0, 2/3].

    R = 1 + (3D/2) log2(D/2) + (1 - 3D/2) log2(1 - 3D/2), with vanishing
    weights contributing zero at the endpoints.
    """
    d = _in_domain(d, 2.0 / 3.0, "six-state QBER")
    return 1.0 + 3.0 * _xlog2x(0.5 * d) + _xlog2x(1.0 - 1.5 * d)


def closed_rate_six_state_alt(d):
    """Equivalent six-state rate (1-D)[1 - H(D/(2(1-D)))] - H(D).

    Algebraically identical to ``closed_rate_six_state`` on [0, 2/3]; past
    2/3 the inner entropy argument exceeds 1 and the form is meaningless,
    so the same domain is enforced.
    """
    d = _in_domain(d, 2.0 / 3.0, "six-state QBER")
    f = 1.0 - d
    return f * (1.0 - binary_entropy(np.minimum(d / (2.0 * f), 1.0))) - binary_entropy(d)


def general_rate_bb84(x, y):
    """Closed-form rate of the two-angle BB84 attack, elementwise over angle arrays.

    Assembled from the branch decomposition of Eve's average state:
    R = 1 - H(D) - (1-D) H(b(x)) - D H(b(y)) with b the branch eigenvalue.
    Coincides with 1 - 2 H(D) on the diagonal x = y. The QBER and both
    branch eigenvalues come from cos x and cos y, each computed once.
    """
    cx, cy = np.cos(x), np.cos(y)
    d = _qber_from_cosines(cx, cy)
    p = np.empty((3,) + np.shape(d))  # d has the shape cx and cy broadcast to
    p[0], p[1], p[2] = d, _branch_from_cosine(cx), _branch_from_cosine(cy)
    h_d, h_x, h_y = binary_entropy(p)
    return 1.0 - h_d - (1.0 - d) * h_x - d * h_y


def rate_curve(protocol: Protocol | str, grid: int) -> np.ndarray:
    """Numeric and closed-form rates at ``grid`` evenly spaced attack angles x.

    x sweeps the QBER range of each protocol: D(x, x) in [0, 1/2] for
    BB84 (x up to pi/2, on the diagonal y = x), D(x) in [0, 2/3] for
    six-state (x up to pi). Returns a (grid, 8) table, one row per attack,
    with the columns ``CURVE_COLUMNS``; ``abs_diff`` is |numeric - closed|.
    ``protocol`` is a member or its name, ``grid`` an integer in [2, 2**40].
    """
    _check_grid(grid, 2)
    bb84 = Protocol(protocol) is Protocol.BB84
    params = AttackParams(protocol, np.linspace(0.0, math.pi / 2 if bb84 else math.pi, grid))
    closed = general_rate_bb84(params.x, params.y) if bb84 else closed_rate_six_state(params.qber)
    dw = dw_rate_numeric(params)
    r = dw["R_DW"]
    return np.column_stack((params.x, params.y, params.qber, dw["I_AB"], dw["chi_AE"], r, closed, np.abs(r - closed)))


@dataclass(frozen=True)
class Threshold:
    """Root of a closed-form rate: the QBER where the key rate vanishes.

    A class, not a dict: the benchmark's tracer reads ``result.iterations``,
    and its traced smoke run fails without it.
    """

    D_star: float
    residual: float
    iterations: int


def find_threshold(protocol: Protocol | str) -> Threshold:
    """Bisect the closed-form rate of a protocol, the member or its name, to its security threshold.

    Brackets [1e-6, 0.49] (BB84) or [1e-6, 0.6] (six-state); stops when
    |rate| <= 1e-10. A missing sign change means the rate function is
    broken, so that raises rather than returning.
    """
    if Protocol(protocol) is Protocol.BB84:
        fn, hi = closed_rate_bb84, 0.49
    else:
        fn, hi = closed_rate_six_state, 0.6
    lo = 1e-6
    if not fn(lo) > 0.0 > fn(hi):
        raise RuntimeError(f"rate does not change sign over [{lo}, {hi}]")
    for iterations in range(201):  # the rate stays positive at lo and turns negative by hi
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if abs(f_mid) <= _BISECT_TOL:
            return Threshold(D_star=mid, residual=f_mid, iterations=iterations)
        lo, hi = (mid, hi) if f_mid > 0.0 else (lo, mid)
    raise RuntimeError("bisection failed to reach tolerance")


def _constrained_y(c, d: float):
    """Angle y keeping the QBER at d for each x, given c = cos x, and whether such a y exists.

    Where |cos y| would exceed 1 the returned y is the nearest end of [0, pi]; no y exists
    there, nor where cos x rounds to 1 (the QBER is 0 for every y).
    """
    cy = (1.0 - c) / d - 2.0 + c
    return np.arccos(np.minimum(np.maximum(cy, -1.0), 1.0)), (np.abs(cy) <= 1.0 + 1e-12) & (c != 1.0)


def _fixed_qber_rate(x, d: float):
    """Rate at each x on the curve of QBER d, +inf where no y exists: the f of the fixed-QBER search."""
    y, feasible = _constrained_y(np.cos(x), d)
    return np.where(feasible, general_rate_bb84(x, np.where(feasible, y, 0.0)), math.inf)


def minimize_family_rate(d_target: float, grid: int) -> dict:
    """Minimize the BB84 rate over all attacks with a fixed QBER.

    Scans x on a grid over its feasible range in one array evaluation of
    ``general_rate_bb84`` (the companion angle y is solved from the QBER
    constraint; grid points with |cos y| > 1 are skipped), then refines the
    best cell by golden-section search. The minimum sits on the diagonal
    x = y at rate 1 - 2 H(D). Targets below the floor ``_MIN_TARGET``
    (1e-15) raise, and so does a grid outside 100 to ``_MAX_GRID`` (2**40). Returns
    ``{"x_best", "y_best", "R_min", "gap"}``, with gap = |R_min - (1 - 2 H(D))|.

    Each f comes from one array call over every point the next ``_LOOKAHEAD``
    steps can form. Those steps' brackets are built once, as a heap the
    search then walks, and batch rows equal scalar calls bit for bit: the
    path is that of one call per point. The points stay within a step of the
    scan's minimum; ``_fixed_qber_rate`` raises only as x -> 0, below xs[0].
    """
    if not 0.0 < d_target < 0.5:
        raise ValueError(f"target QBER {d_target} outside (0, 1/2)")
    if d_target < _MIN_TARGET:
        raise ValueError(f"target QBER {d_target} below minimize's floor {_MIN_TARGET:g}")
    _check_grid(grid, 100)
    # cos(y) <= 1 bounds cos(x) from below; x = 0 is a degenerate corner.
    x_hi = math.acos(max(-1.0, (1.0 - 3.0 * d_target) / (1.0 - d_target)))
    xs = np.linspace(0.0, x_hi, grid + 1)[1:]

    scan = _fixed_qber_rate(xs, d_target)
    best_i = int(np.argmin(scan))
    if not np.isfinite(scan[best_i]):
        raise ValueError("no feasible attack angles at this QBER")

    # Golden-section pass over the bracketing cells.
    step = x_hi / grid
    a = max(float(xs[best_i]) - step, 0.5 * step)
    b = min(float(xs[best_i]) + step, x_hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def shrink(a, b, c1, c2, left):
        """The bracket after one step: [a, c2] if f(c1) < f(c2), else [c1, b], with its new inner point."""
        return (a, c2, c2 - invphi * (c2 - a), c1) if left else (c1, b, c2, c1 + invphi * (b - c1))

    bracket, tree = (a, b, b - invphi * (b - a), a + invphi * (b - a)), None
    while bracket[1] - bracket[0] > 1e-12:
        if tree is None:  # build the brackets of the next _LOOKAHEAD steps and evaluate all their points
            tree = [None, bracket]  # a heap: bracket n steps to 2n if f(c1) < f(c2), else to 2n + 1
            for n in range(1, 2**_LOOKAHEAD):
                tree += [shrink(*tree[n], True), shrink(*tree[n], False)]
            # f[n] is f at the point bracket n adds; f[0] and f[1] at the root's c1 and c2.
            points = [*bracket[2:], *(t[2 + n % 2] for n, t in enumerate(tree[2:], 2))]
            f = _fixed_qber_rate(np.array(points), d_target).tolist()
            n, i1, i2 = 1, 0, 1  # the bracket's node, and where f holds its c1 and c2
        left = f[i1] < f[i2]
        if 2 * n < len(tree):
            n = 2 * n + (not left)
            bracket, (i1, i2) = tree[n], ((n, i1) if left else (i2, n))
        else:
            bracket, tree = shrink(*bracket, left), None
    x_best = 0.5 * (bracket[0] + bracket[1])
    y_best = float(_constrained_y(np.cos(x_best), d_target)[0])
    r_min = float(general_rate_bb84(x_best, y_best))
    return {"x_best": x_best, "y_best": y_best, "R_min": r_min, "gap": abs(r_min - closed_rate_bb84(d_target))}
