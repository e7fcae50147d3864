"""Signal states, bases and their bit labels for BB84 and six-state QKD.

Labels are plain strings: bits live in "0"/"1" (Z), "+"/"-" (X) and
"R"/"L" (Y). BB84 uses the Z and X bases only; the six-state protocol adds
Y. All vectors carry the fixed phase convention of a real, non-negative
first component, so tests can compare components exactly.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = [
    "Protocol",
    "basis_labels",
    "basis_of",
    "conjugate_flip",
    "state_vector",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_VECTORS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex),
    "-": np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex),
    "R": np.array([_INV_SQRT2, _INV_SQRT2 * 1j], dtype=complex),
    "L": np.array([_INV_SQRT2, -_INV_SQRT2 * 1j], dtype=complex),
}

_BASIS_LABELS = {"Z": ("0", "1"), "X": ("+", "-"), "Y": ("R", "L")}
_BASIS_OF = {u: b for b, pair in _BASIS_LABELS.items() for u in pair}
# Within-basis bit flip: the partner state of each label.
_FLIP = {"0": "1", "1": "0", "+": "-", "-": "+", "R": "L", "L": "R"}


class Protocol(Enum):
    """Protocol kind; fixes the basis set and hence the sifting probability."""

    BB84 = "bb84"
    SIX_STATE = "six-state"

    @property
    def bases(self) -> tuple[str, ...]:
        return ("Z", "X") if self is Protocol.BB84 else ("Z", "X", "Y")

    @property
    def sift_probability(self) -> float:
        return 1.0 / len(self.bases)


def _check_label(u: str) -> str:
    if u not in _VECTORS:
        raise ValueError(f"unknown signal label {u!r}")
    return u


def _check_basis(basis: str) -> str:
    if basis not in _BASIS_LABELS:
        raise ValueError(f"unknown basis {basis!r}")
    return basis


def state_vector(u: str) -> np.ndarray:
    """Two-component ket for a signal label."""
    return _VECTORS[_check_label(u)].copy()


def basis_of(u: str) -> str:
    return _BASIS_OF[_check_label(u)]


def basis_labels(basis: str) -> tuple[str, str]:
    """(bit-0 label, bit-1 label) of a basis."""
    return _BASIS_LABELS[_check_basis(basis)]


def conjugate_flip(u: str) -> str:
    """The orthogonal partner within the same basis: 0<->1, +<->-, R<->L."""
    return _FLIP[_check_label(u)]

