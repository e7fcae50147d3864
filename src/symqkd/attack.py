"""Symmetric collective attacks as Stinespring isometries.

The eavesdropper couples every signal qubit to a fresh two-qubit ancilla.
Demanding that the interaction treat all protocol signal states identically
(same fidelity, same disturbance, orthogonal branches in every protocol
basis) leaves a two-angle family of attacks on BB84, and its one-angle
member y = pi/2 on the six-state protocol. The whole interaction is
captured by the 8x2 isometry

    V |u> = |u> (x) |F_u>  +  |u+1> (x) |D_u>,    u in {0, 1},

where |F_u| carries the undisturbed branch (norm^2 = fidelity F) and |D_u|
the flipped branch (norm^2 = QBER D), and |u+1| is the within-basis
partner state. The signal qubit is the first tensor factor; the 4-dim
ancilla the second.

Angles may be arrays: ``AttackParams("bb84", xs, ys)`` describes a batch of
attacks, its isometry is an (..., 8, 2) stack and every reduced state an
(..., n, n) stack. Scalar angles are the same code on zero-dimensional
arrays, so one path serves a single attack and a whole curve.

On Bob's side the attack acts as a uniform contraction,
rho_B(u) = F |u><u| + D |u+1><u+1|; Eve holds the complementary output
rho_E(u) = |F_u><F_u| + |D_u><D_u|. Both reductions are computed here, and
``verify_symmetry`` returns in one dict the residual of every symmetry
condition in any basis, these two output forms included, for one
attack or for every attack of a batch, all bases in one stacked pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .smallmat import is_isometry, projector
from .states import SIGNAL_STATES, Protocol, basis_labels, basis_rows, state_vector

__all__ = [
    "ANGLE_CONDITIONS",
    "BASE_CONDITIONS",
    "AttackParams",
    "attack_isometry",
    "bob_state",
    "branch_states",
    "eve_average",
    "eve_state",
    "induced_ancillas",
    "qber_bb84",
    "verify_symmetry",
]

_QUAD_TOL = 1e-12
_ZERO_BRANCH = 1e-15
# A six-state y this close to pi/2 is pi/2 printed with 12 digits.
_PIN_TOL = 1e-11


def qber_bb84(x, y):
    """QBER induced by the two-angle BB84 attack: (1-cos x)/(2-cos x+cos y)."""
    return _qber_from_cosines(np.cos(x), np.cos(y))


def _qber_from_cosines(cx, cy):
    """``qber_bb84`` at angles whose cosines are cx and cy."""
    den = 2.0 - cx + cy
    if (np.abs(den) < 1e-12).any():
        raise ValueError("degenerate attack angles: 2 - cos(x) + cos(y) vanishes")
    return (1.0 - cx) / den


def _canonical_angle(t) -> np.ndarray:
    """Reduce angles to [0, pi]; rates depend on them only through cos."""
    a = np.asarray(t, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("attack angle must be finite")
    return np.where((a >= 0.0) & (a <= math.pi), a, np.arccos(np.cos(a)))


def _field(a: np.ndarray) -> float | np.ndarray:
    """A zero-dimensional array as a plain float, any other array as is."""
    return float(a) if a.ndim == 0 else a


@dataclass(frozen=True, eq=False)
class AttackParams:
    """Angles fully determining one symmetric attack, or a batch of them.

    x controls the undisturbed-branch overlap, y the flipped-branch one.
    Scalar angles give one attack with float fields; arrays (broadcast
    together) give one attack per element, and every check covers all of
    them. ``protocol`` is a ``Protocol`` or its name. Angles are reduced to
    [0, pi]; y defaults per protocol. ``qber`` is computed once, from the
    reduced angles; ``isometry`` is built on first use and kept. Domains:

    - BB84: x, y in [0, pi] with QBER in [0, 1); y defaults to x, the
      rate-minimizing diagonal. The edge y = pi (QBER 1) and the
      degenerate corner (0, pi) are rejected.
    - Six-state: x in [0, pi], QBER in [0, 2/3]. y is pi/2, the unique
      value symmetric in all three bases; a y within 1e-11 of it is taken
      as pi/2. This is the BB84 attack at y = pi/2, with the same QBER.

    Batches are compared and hashed by identity, not by value.
    """

    protocol: Protocol | str
    x: float | np.ndarray
    y: float | np.ndarray | None = None
    qber: float | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        y = self.y
        if y is None:
            y = self.x if self.protocol is Protocol.BB84 else math.pi / 2
        x, y = np.broadcast_arrays(_canonical_angle(self.x), _canonical_angle(y))
        if self.protocol is Protocol.SIX_STATE:
            if (np.abs(y - math.pi / 2) > _PIN_TOL).any():
                raise ValueError("six-state attacks require y = pi/2")
            y = np.full_like(y, math.pi / 2)
        object.__setattr__(self, "x", _field(x))
        object.__setattr__(self, "y", _field(y))
        d = qber_bb84(self.x, self.y)
        object.__setattr__(self, "qber", d)
        bad = ~((d >= 0.0) & (d < 1.0))
        if bad.any():
            raise ValueError(f"attack angles give QBER {np.asarray(d)[bad].flat[0]}, outside [0, 1)")
        # On y = pi the QBER is exactly 1; rounding alone must not let an attack through.
        if (np.cos(y) == -1.0).any():
            raise ValueError("attack angle y = pi gives QBER 1, outside [0, 1)")

    @property
    def fidelity(self):
        return 1.0 - self.qber

    @cached_property
    def isometry(self) -> np.ndarray:
        """``attack_isometry(self)``, built on first use and kept read-only."""
        v = attack_isometry(self)
        v.flags.writeable = False
        return v


def attack_isometry(params: AttackParams) -> np.ndarray:
    """Isometry of the attack given by params: 8x2, or an (..., 8, 2) stack for a batch.

    Built from the Z-basis ancillas, rows F0, D0, F1, D1 of a (..., 4, 4)
    stack that ``induced_ancillas(v, "Z")`` reads back exactly. Their Gram
    matrix must meet the symmetry constraints (equal branch norms summing
    to one, orthogonality within and across branches) and V^dag V = I must
    hold; a violation of either raises. Every entry is real, so both checks
    run on float64 arrays and V is cast to complex once, when it is returned.
    """
    d = params.qber
    sf, sd = np.sqrt(1.0 - d), np.sqrt(d)
    q = np.zeros(np.shape(d) + (4, 4))  # rows F0, D0, F1, D1
    q[..., 0, 0] = sf
    q[..., 1, 1] = sd
    q[..., 2, 0], q[..., 2, 3] = sf * np.cos(params.x), sf * np.sin(params.x)
    q[..., 3, 1], q[..., 3, 2] = sd * np.cos(params.y), sd * np.sin(params.y)
    g = q @ q.swapaxes(-1, -2)  # g[..., i, j] = <q_i|q_j>
    nf, nd = g[..., 0, 0], g[..., 1, 1]
    residual = np.abs(
        [
            g[..., 2, 2] - nf,
            g[..., 3, 3] - nd,
            nf + nd - 1.0,
            g[..., 0, 1],
            g[..., 2, 3],
            g[..., 0, 3],
            g[..., 2, 1],
        ]
    ).max(initial=0.0)  # 0.0 for an empty batch
    if residual > _QUAD_TOL:
        raise ValueError(f"ancilla quad violates symmetry constraints (max residual {residual:.3e})")
    # V|0> = |0>|F0> + |1>|D0> and V|1> = |0>|D1> + |1>|F1>: pick the quad
    # rows as (signal, input), then order the axes (signal, ancilla, input).
    v = q[..., [[0, 3], [1, 2]], :].swapaxes(-1, -2).reshape(q.shape[:-2] + (8, 2))
    if not is_isometry(v, _QUAD_TOL):
        raise ValueError("constructed map is not an isometry")
    return v.astype(complex)


def _output(v: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """V|u> for a ket |u> or each of an (L, 2) stack, as (..., [L,] 2, 4) arrays indexed (signal, ancilla)."""
    return (v[..., None, :, :] @ kets[..., :, None]).reshape(v.shape[:-2] + kets.shape[:-1] + (2, 4))


def _label_outputs(v: np.ndarray, bases: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """|u>, |u+1>, V|u>, F_u and D_u stacked over the labels u0, u1 of each basis, with one-label bits."""
    rows = basis_rows(bases)
    kets, partners = SIGNAL_STATES[rows], SIGNAL_STATES[rows ^ 1]
    psi = _output(v, kets)
    f = (kets.conj()[:, None, :] @ psi)[..., 0, :]  # component along |u>
    d = (partners.conj()[:, None, :] @ psi)[..., 0, :]  # component along |u+1>
    return kets, partners, psi, f, d


def induced_ancillas(v: np.ndarray, basis: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decompose the attack in another basis.

    Writing V|u> = |u>|F_u> + |u+1>|D_u> for the pair (u, u+1) of the given
    basis, returns (F_u, D_u, F_u+1, D_u+1). In the Z basis these are the
    rows F0, D0, F1, D1 that ``attack_isometry`` built, bit for bit.
    """
    f, d = _label_outputs(v, (basis,))[3:]
    return f[..., 0, :], d[..., 0, :], f[..., 1, :], d[..., 1, :]


def _reduced(psi: np.ndarray, keep: str) -> np.ndarray:
    """State of each output psi[..., signal, ancilla] on one factor: "A" keeps Bob's signal, "B" Eve's ancilla."""
    return np.einsum("...ak,...bk->...ab" if keep == "A" else "...ka,...kb->...ab", psi, psi.conj())


def bob_state(v: np.ndarray, u: str) -> np.ndarray:
    """Bob's 2x2 reduced state for input label u (ancilla traced out)."""
    return _reduced(_output(v, state_vector(u)), "A")


def eve_state(v: np.ndarray, u: str) -> np.ndarray:
    """Eve's 4x4 reduced state for input label u; a label string stacks the one-label states on axis -3, bit for bit."""
    kets = np.array([state_vector(label) for label in u]) if len(u) > 1 else state_vector(u)
    return _reduced(_output(v, kets), "B")


def eve_average(v: np.ndarray, basis: str) -> np.ndarray:
    """Eve's state averaged over the basis pair sent with equal probability."""
    return 0.5 * eve_state(v, "".join(basis_labels(basis))).sum(axis=-3)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> along the last axis, one value per attack of a batch.

    A stacked (1, n) @ (n, 1) matmul hands each pair to the dot kernel that
    np.vdot uses, so one attack's residuals keep every bit they had;
    einsum or (a.conj() * b).sum(-1) sum in another order and move printed
    digits.
    """
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _frobenius(m: np.ndarray) -> np.ndarray:
    """||m||_F of each matrix of a stack, summed as np.linalg.norm sums one matrix.

    np.linalg.norm(m, axis=(-2, -1)) sums in another order and differs in
    the last bit for about one generic matrix in five.
    """
    flat = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))  # -1 is ambiguous for an empty batch
    return np.sqrt(_dot(flat.real, flat.real) + _dot(flat.imag, flat.imag))


def branch_states(v: np.ndarray, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """Average of the normalized branch vectors, per branch and per attack.

    Returns (rho_F, rho_D): the equal mixture of the normalized
    undisturbed-branch ancillas and of the flipped-branch ones, as (..., 4, 4)
    stacks for an (..., 8, 2) isometry stack. A branch of weight at most
    1e-15 carries no probability and comes back as the zero matrix (its
    entropy contribution is zero).
    """
    fu, du, fv, dv = induced_ancillas(v, basis)
    out = []
    for a, b in ((fu, fv), (du, dv)):
        w = (0.5 * (_dot(a, a).real + _dot(b, b).real))[..., None, None]
        live = w > _ZERO_BRANCH
        out.append(np.where(live, (projector(a) + projector(b)) / (2.0 * np.where(live, w, 1.0)), 0.0))
    return out[0], out[1]


# Per-state conditions (each signal state separately) and pairwise ones
# (between a state and its within-basis partner).
BASE_CONDITIONS = ("F_norm", "D_norm", "FD_ortho", "channel_contraction", "complementary_output")
ANGLE_CONDITIONS = ("FF_overlap", "DD_overlap", "FD_cross")


def verify_symmetry(params: AttackParams, bases: tuple[str, ...] | None = None) -> dict:
    """Absolute residual of every symmetry condition, keyed (basis, condition).

    By default the protocol's own bases are checked; passing ``bases``
    overrides this, e.g. to probe a BB84 attack in the Y basis (where the
    conditions fail unless y = pi/2 or x = 0). Besides the ancilla
    conditions, each basis gets the distance of Bob's state from the uniform
    contraction (``channel_contraction``) and of Eve's from the
    complementary output (``complementary_output``); these keys follow the
    ancilla keys of all bases. Each value is the larger residual of the
    basis's two states, per attack: a float for one attack, an array shaped
    like the angles for a batch. Each quantity is computed once, over the
    stacked labels u0, u1 of every basis, with the bits of a one-label check.
    """
    if bases is None:
        bases = params.protocol.bases
    if not bases:
        raise ValueError("verify_symmetry needs at least one basis")
    kets, partners, psi, fa, da = _label_outputs(params.isometry, bases)
    f, d = np.asarray(params.fidelity)[..., None], np.asarray(params.qber)[..., None]  # per label
    target_b = f[..., None, None] * projector(kets) + d[..., None, None] * projector(partners)
    per_label = {
        "F_norm": abs(_dot(fa, fa).real - f),
        "D_norm": abs(_dot(da, da).real - d),
        "FD_ortho": abs(_dot(fa, da)),
        "FD_cross": abs(_dot(fa, da[..., np.arange(len(kets)) ^ 1, :])),
        "channel_contraction": _frobenius(_reduced(psi, "A") - target_b),
        "complementary_output": _frobenius(_reduced(psi, "B") - (projector(fa) + projector(da))),
    }
    rows = {c: np.maximum(r[..., 0::2], r[..., 1::2]) for c, r in per_label.items()}  # each basis's worse state
    rows["FF_overlap"] = abs(_dot(fa[..., 0::2, :], fa[..., 1::2, :]) - f * np.cos(params.x)[..., None])
    rows["DD_overlap"] = abs(_dot(da[..., 0::2, :], da[..., 1::2, :]) - d * np.cos(params.y)[..., None])
    groups = (BASE_CONDITIONS[:3] + ANGLE_CONDITIONS, BASE_CONDITIONS[3:])  # ancilla rows first
    order = [(i, basis, c) for group in groups for i, basis in enumerate(bases) for c in group]
    return {(basis, c): _field(np.asarray(rows[c][..., i])) for i, basis, c in order}
