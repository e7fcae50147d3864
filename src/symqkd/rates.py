"""Entropies, Holevo information, and Devetak-Winter secret-key rates.

Two independent routes to the same numbers live here. The numeric route
runs the full pipeline (attack isometry, partial traces, eigenvalues,
entropies, Holevo information) and assembles R = I_AB - chi_AE. The closed
route evaluates the known key-rate formulas of the two protocols directly
as functions of the QBER. Their agreement over the whole attack family is
the main correctness check of the package.

Both routes take arrays as well as scalars: a batch of attacks runs as
one stack through the same code that evaluates a single attack, and every
domain and consistency check covers the whole batch.

All logarithms are base 2; entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attack import AttackParams, eve_state, qber_bb84
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
_AVG_TOL = 1e-10
_RATE_CONSISTENCY_TOL = 1e-9
_BISECT_TOL = 1e-10
_LOOKAHEAD = 4  # golden-section steps whose points one array call evaluates ahead
_MIN_TARGET = 1e-15  # smallest minimize target; below it cos x rounds to 1 near x* = acos(1 - 2D)
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


def _holevo(rho_avg, rho_u, rho_flip) -> tuple[np.ndarray, np.ndarray]:
    """(chi, S(rho_avg)) of equiprobable pairs from one eigenvalue call; rho_avg is not checked."""
    s_avg, s_u, s_flip = von_neumann_entropy(np.stack([rho_avg, rho_u, rho_flip]))
    chi = s_avg - 0.5 * (s_u + s_flip)
    if (chi < -_AVG_TOL).any():
        raise RuntimeError(f"Holevo information came out negative ({chi.min():.3e})")
    return np.maximum(chi, 0.0), s_avg


def holevo_information(rho_avg, rho_u, rho_flip):
    """Holevo bound on an equiprobable two-state ensemble, or on each of a stack of them.

    chi = S(rho_avg) - [S(rho_u) + S(rho_flip)] / 2; rho_avg must actually
    be the average of the pair. Tiny negative round-off is clamped to 0.
    """
    rho_avg, rho_u, rho_flip = np.asarray(rho_avg), np.asarray(rho_u), np.asarray(rho_flip)
    if (np.linalg.norm(rho_avg - 0.5 * (rho_u + rho_flip), axis=(-2, -1)) > _AVG_TOL).any():
        raise ValueError("rho_avg is not the average of the two ensemble states")
    return _holevo(rho_avg, rho_u, rho_flip)[0]


def dw_rate_numeric(params: AttackParams) -> dict:
    """Devetak-Winter rate of an attack, or of every attack of a batch, from first principles.

    Pipeline: isometry -> Eve's reduced states -> eigenvalues -> entropies
    -> Holevo information; then R = I_AB - chi_AE with I_AB = 1 - H(D).
    The symmetric attack also forces R = 1 - S(rho_E); a violation of that
    identity signals an internal inconsistency and raises. Returns floats
    (one attack) or arrays (a batch) keyed I_AB, chi_AE, R_DW and
    identity_residual = |R_DW - (1 - S(rho_E))|.
    """
    rho_u, rho_flip = eve_state(params.isometry, "0"), eve_state(params.isometry, "1")
    chi, s_avg = _holevo(0.5 * (rho_u + rho_flip), rho_u, rho_flip)
    i_ab = 1.0 - binary_entropy(params.qber)
    r = i_ab - chi
    residual = np.abs(r - (1.0 - s_avg))
    if (residual > _RATE_CONSISTENCY_TOL).any():
        raise RuntimeError("rate pipeline violates R = 1 - S(rho_E) for a symmetric attack")
    return {"I_AB": i_ab, "chi_AE": chi, "R_DW": r, "identity_residual": residual}


def branch_eigenvalue(angle):
    """Nontrivial eigenvalue (1 - |cos angle|)/2 of a two-vector branch average."""
    return 0.5 * (1.0 - np.abs(np.cos(angle)))


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
    Coincides with 1 - 2 H(D) on the diagonal x = y.
    """
    d = qber_bb84(x, y)
    h_d, h_x, h_y = binary_entropy(np.stack(np.broadcast_arrays(d, branch_eigenvalue(x), branch_eigenvalue(y))))
    return 1.0 - h_d - (1.0 - d) * h_x - d * h_y


def rate_curve(protocol: Protocol, grid: int) -> np.ndarray:
    """Numeric and closed-form rates at ``grid`` evenly spaced attack angles x.

    x sweeps the QBER range of each protocol: D(x, x) in [0, 1/2] for
    BB84 (x up to pi/2, on the diagonal y = x), D(x) in [0, 2/3] for
    six-state (x up to pi). Returns a (grid, 8) table, one row per attack,
    with the columns ``CURVE_COLUMNS``; ``abs_diff`` is |numeric - closed|.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    bb84 = protocol is Protocol.BB84
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


def find_threshold(protocol: Protocol) -> Threshold:
    """Bisect the protocol's closed-form rate to its security threshold.

    Brackets [1e-6, 0.49] (BB84) or [1e-6, 0.6] (six-state); stops when
    |rate| <= 1e-10. A missing sign change means the rate function is
    broken, so that raises rather than returning.
    """
    if protocol is Protocol.BB84:
        fn, hi = closed_rate_bb84, 0.49
    else:
        fn, hi = closed_rate_six_state, 0.6
    lo = 1e-6
    f_lo, f_hi = fn(lo), fn(hi)
    if not f_lo > 0.0 > f_hi:
        raise RuntimeError(f"rate does not change sign over [{lo}, {hi}]")
    iterations = 0
    mid, f_mid = 0.5 * (lo + hi), fn(0.5 * (lo + hi))
    while abs(f_mid) > _BISECT_TOL and iterations < 200:
        iterations += 1
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
    if abs(f_mid) > _BISECT_TOL:
        raise RuntimeError("bisection failed to reach tolerance")
    return Threshold(D_star=mid, residual=f_mid, iterations=iterations)


def _constrained_y(x, d: float):
    """Angle y keeping the QBER at d for each x, and whether such a y exists.

    Where |cos y| would exceed 1 the returned y is the nearest end of [0, pi]; no y exists
    there, nor where cos x rounds to 1 (the QBER is 0 for every y).
    """
    c = np.cos(x)
    cy = (1.0 - c) / d - 2.0 + c
    return np.arccos(np.minimum(np.maximum(cy, -1.0), 1.0)), (np.abs(cy) <= 1.0 + 1e-12) & (c != 1.0)


def minimize_family_rate(d_target: float, grid: int) -> dict:
    """Minimize the BB84 rate over all attacks with a fixed QBER.

    Scans x on a grid over its feasible range in one array evaluation (the
    companion angle y is solved from the QBER constraint; grid points with
    |cos y| > 1 are skipped), then refines the best cell by golden-section
    search. The minimum sits on the diagonal x = y at rate 1 - 2 H(D).
    Targets below the floor ``_MIN_TARGET`` (1e-15) raise. Returns
    ``{"x_best", "y_best", "R_min", "gap"}``, with gap = |R_min - (1 - 2 H(D))|.

    Each f comes from one array call over every point the next ``_LOOKAHEAD``
    steps can form, by their own float expressions, and batch rows equal scalar
    calls bit for bit: the path is unchanged. The points stay within a step of
    the scan's minimum; ``rate_at`` raises only as x -> 0, below xs[0].
    """
    if not 0.0 < d_target < 0.5:
        raise ValueError(f"target QBER {d_target} outside (0, 1/2)")
    if d_target < _MIN_TARGET:
        raise ValueError(f"target QBER {d_target} below minimize's floor {_MIN_TARGET:g}")
    if grid < 100:
        raise ValueError("grid must be at least 100")
    # cos(y) <= 1 bounds cos(x) from below; x = 0 is a degenerate corner.
    x_hi = math.acos(max(-1.0, (1.0 - 3.0 * d_target) / (1.0 - d_target)))
    xs = np.linspace(0.0, x_hi, grid + 1)[1:]

    def rate_at(x):
        """Rate at each x on the fixed-QBER curve; +inf where no y exists."""
        y, feasible = _constrained_y(x, d_target)
        return np.where(feasible, general_rate_bb84(x, np.where(feasible, y, 0.0)), math.inf)

    scan = rate_at(xs)
    best_i = int(np.argmin(scan))
    if not np.isfinite(scan[best_i]):
        raise ValueError("no feasible attack angles at this QBER")

    # Golden-section pass over the bracketing cells.
    step = x_hi / grid
    a = max(float(xs[best_i]) - step, 0.5 * step)
    b = min(float(xs[best_i]) + step, x_hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c1, c2 = b - invphi * (b - a), a + invphi * (b - a)
    known: dict[float, float] = {}

    def rate(c: float) -> float:
        if c not in known:  # evaluate the current bracket (a, b, c1, c2) and all it can lead to
            level, points = [(a, b, c1, c2)], [c1, c2]
            for _ in range(_LOOKAHEAD):  # the brackets after f1 < f2 and after f1 >= f2
                level = [t for lo, hi, p, q in level
                         for t in ((lo, q, q - invphi * (q - lo), p), (p, hi, q, p + invphi * (hi - p)))]
                points += [t[2 + i % 2] for i, t in enumerate(level)]
            known.update(zip(points, rate_at(np.array(points)).tolist()))
        return known[c]

    f1, f2 = rate(c1), rate(c2)
    while b - a > 1e-12:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = rate(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = rate(c2)
    x_best = 0.5 * (a + b)
    y_best = float(_constrained_y(x_best, d_target)[0])
    r_min = float(general_rate_bb84(x_best, y_best))
    return {"x_best": x_best, "y_best": y_best, "R_min": r_min, "gap": abs(r_min - closed_rate_bb84(d_target))}
