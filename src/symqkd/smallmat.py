"""Dense complex linear algebra for spaces of dimension <= 8.

Everything operates on plain ``complex128`` numpy arrays, except that the
isometry predicate keeps a real array real. The attack and the rates use
projectors, the isometry predicate and Hermitian eigenvalues (LAPACK through
``np.linalg.eigvalsh``), all of which also take stacks, one matrix per attack
of a batch. ``tensor`` and ``partial_trace`` have no caller in the
package; they stay while the benchmark's per-layer metrics name them.

Index convention for composite spaces: the left tensor factor varies
slowest, i.e. a (dim_a * dim_b)-dimensional vector stores component
(i_a, i_b) at flat index ``i_a * dim_b + i_b``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "hermitian_eigenvalues",
    "is_isometry",
    "partial_trace",
    "projector",
    "tensor",
]

HERMITIAN_TOL = 1e-10


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _as_complex(m) -> np.ndarray:
    return _finite(np.asarray(m, dtype=complex))


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices (or column vectors); dims multiply."""
    return np.kron(_as_complex(a), _as_complex(b))


def projector(v) -> np.ndarray:
    """Rank-1 projector |v><v| of a state vector, or of each of a (..., n) stack."""
    vec = _as_complex(v)
    return vec[..., :, None] * vec.conj()[..., None, :]


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Reduce a (dim_a*dim_b)-dimensional operator to one factor.

    ``keep="A"`` traces out the second factor and returns the dim_a
    operator; ``keep="B"`` the other way round. The trace is preserved.
    """
    a = _as_complex(m)
    n = dim_a * dim_b
    if a.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims ({dim_a},{dim_b}), got {a.shape}")
    blocks = a.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ijkj->ik", blocks)
    if keep == "B":
        return np.einsum("ijik->jk", blocks)
    raise ValueError("keep must be 'A' or 'B'")


def is_isometry(v, tol: float) -> bool:
    """True iff V^dag V = I within ||.||_F <= tol, for one matrix or every one of a stack, real or complex."""
    a = _finite(np.asarray(v))
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        return False
    gram = a.conj().swapaxes(-1, -2) @ a
    return bool(np.all(np.linalg.norm(gram - np.eye(a.shape[-1]), axis=(-2, -1)) <= tol))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each in a (..., n, n) stack, descending.

    Every matrix must be finite and Hermitian within ``HERMITIAN_TOL``
    (Frobenius norm of m - m^dag); one that is not rejects the whole call.
    """
    a = _as_complex(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got {a.shape}")
    adjoint = a.conj().swapaxes(-1, -2)
    # eigvalsh reads one triangle only; hand it the Hermitian part of m (m itself if exactly Hermitian).
    if not (a == adjoint).all():
        skew = a - adjoint
        if (np.linalg.norm(skew, axis=(-2, -1)) > HERMITIAN_TOL).any():
            raise ValueError("matrix is not Hermitian within tolerance")
        a = a - 0.5 * skew
    return np.linalg.eigvalsh(a)[..., ::-1]
