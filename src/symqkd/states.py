"""Signal states of BB84 and six-state QKD, as the rows of one array.

``SIGNAL_STATES`` holds the six kets in the order of ``LABELS``, "01+-RL".
Basis b of "ZXY" is rows 2b (bit 0) and 2b + 1 (bit 1), so a state's
within-basis partner is row i ^ 1; BB84 uses rows [:4], six-state [:6].
Code indexes rows; label and basis strings only name them for people. All
kets carry the fixed phase convention of a real, non-negative first
component, so tests can compare components exactly.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = ["LABELS", "SIGNAL_STATES", "Protocol", "basis_labels", "basis_rows", "state_vector"]

LABELS = "01+-RL"
_BASES = "ZXY"

_S = 1.0 / math.sqrt(2.0)
SIGNAL_STATES = np.array([[1.0, 0.0], [0.0, 1.0], [_S, _S], [_S, -_S], [_S, _S * 1j], [_S, -_S * 1j]], dtype=complex)
SIGNAL_STATES.flags.writeable = False


class Protocol(Enum):
    """Protocol kind; fixes the basis set and hence the sifting probability."""

    BB84 = "bb84"
    SIX_STATE = "six-state"

    @property
    def bases(self) -> tuple[str, ...]:
        return ("Z", "X") if self is Protocol.BB84 else ("Z", "X", "Y")


def _index(name: str, names: str, what: str) -> int:
    """Position of a one-character name in names; anything else raises."""
    if len(name) != 1 or name not in names:
        raise ValueError(f"unknown {what} {name!r}")
    return names.index(name)


def basis_rows(bases) -> np.ndarray:
    """Rows 2b, 2b + 1 (bit 0, bit 1) of each basis b in turn."""
    return np.array([2 * _index(basis, _BASES, "basis") + bit for basis in bases for bit in (0, 1)], dtype=np.intp)


def state_vector(u: str) -> np.ndarray:
    """Two-component ket for a signal label."""
    return SIGNAL_STATES[_index(u, LABELS, "signal label")].copy()


def basis_labels(basis: str) -> tuple[str, str]:
    """(bit-0 label, bit-1 label) of a basis."""
    b = 2 * _index(basis, _BASES, "basis")
    return LABELS[b], LABELS[b + 1]
