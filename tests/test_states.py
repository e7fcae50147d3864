import itertools

import numpy as np
import pytest

from symqkd.states import (
    LABELS,
    SIGNAL_STATES,
    Protocol,
    basis_labels,
    basis_rows,
    state_vector,
)

# float64 bit patterns of 1, 1/sqrt(2) (as 1.0 / math.sqrt(2.0) rounds it),
# -1/sqrt(2) and -0.0.
ONE, S, NEG_S, NEG_ZERO = 0x3FF0000000000000, 0x3FE6A09E667F3BCC, 0xBFE6A09E667F3BCC, 0x8000000000000000
# (re, im) of both components, row by row in the order "01+-RL".
KET_BITS = [
    [ONE, 0, 0, 0],
    [0, 0, ONE, 0],
    [S, 0, S, 0],
    [S, 0, NEG_S, 0],
    [S, 0, 0, S],
    [S, 0, NEG_ZERO, NEG_S],  # "L" = (s, -s*1j): its second real part is -0.0
]


def test_explicit_components():
    # Every bit of every ket, the sign of zero included.
    assert LABELS == "01+-RL"
    assert SIGNAL_STATES.shape == (6, 2) and SIGNAL_STATES.dtype == complex
    np.testing.assert_array_equal(SIGNAL_STATES.view(np.uint64), np.array(KET_BITS, dtype=np.uint64))


def test_rows_are_read_only():
    assert not SIGNAL_STATES.flags.writeable
    with pytest.raises(ValueError):
        SIGNAL_STATES[0, 0] = 0.0


def test_state_vector_is_a_writable_copy_of_its_row():
    for i, u in enumerate(LABELS):
        ket = state_vector(u)
        assert ket.view(np.uint64).tolist() == SIGNAL_STATES[i].view(np.uint64).tolist()
        ket[0] = 0.0
    assert SIGNAL_STATES[0, 0] == 1.0


def test_unit_norm_and_orthogonal_pairs():
    # A state's within-basis partner is row i ^ 1.
    for i in range(6):
        assert abs(np.vdot(SIGNAL_STATES[i], SIGNAL_STATES[i]).real - 1) <= 1e-15
        assert abs(np.vdot(SIGNAL_STATES[i], SIGNAL_STATES[i ^ 1])) <= 1e-15


def test_mutually_unbiased_bases():
    # Row i belongs to basis i // 2.
    for i, j in itertools.product(range(6), range(6)):
        if i // 2 != j // 2:
            assert abs(abs(np.vdot(SIGNAL_STATES[i], SIGNAL_STATES[j])) ** 2 - 0.5) <= 1e-15


def test_basis_rows_are_2b_and_2b_plus_1():
    assert basis_rows(("Z", "X", "Y")).tolist() == [0, 1, 2, 3, 4, 5]
    assert basis_rows(("Y", "Z")).tolist() == [4, 5, 0, 1]
    assert basis_rows(()).tolist() == []


def test_protocol_rows_are_a_prefix():
    # BB84 uses rows [:4], six-state rows [:6].
    assert basis_rows(Protocol.BB84.bases).tolist() == [0, 1, 2, 3]
    assert basis_rows(Protocol.SIX_STATE.bases).tolist() == list(range(6))


def test_encoding_table():
    # basis_labels(basis)[bit] is the label that carries a bit, and names row 2b + bit.
    assert basis_labels("Z") == ("0", "1")
    assert basis_labels("X") == ("+", "-")
    assert basis_labels("Y") == ("R", "L")


def test_unknown_inputs_rejected():
    for name in ("Q", "W", "", "01"):
        with pytest.raises(ValueError):
            state_vector(name)
        with pytest.raises(ValueError):
            basis_labels(name)
        with pytest.raises(ValueError):
            basis_rows((name,))


def test_protocol_basis_sets():
    assert Protocol.BB84.bases == ("Z", "X")
    assert Protocol.SIX_STATE.bases == ("Z", "X", "Y")


def test_serialized_labels_are_the_wire_format():
    # CSV/JSON output uses the labels themselves; each names one row.
    assert sorted(LABELS) == sorted("01+-RL")
    for basis in ("Z", "X", "Y"):
        assert basis_labels(basis) == tuple(LABELS[i] for i in basis_rows((basis,)))
