import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symqkd.states import (
    Protocol,
    basis_labels,
    basis_of,
    conjugate_flip,
    state_vector,
)

ALL_LABELS = ("0", "1", "+", "-", "R", "L")


def test_explicit_components():
    s = 1 / math.sqrt(2)
    np.testing.assert_array_equal(state_vector("0"), [1, 0])
    np.testing.assert_allclose(state_vector("+"), [s, s], atol=1e-16)
    np.testing.assert_allclose(state_vector("R"), [s, s * 1j], atol=1e-16)


def test_unit_norm_and_orthogonal_pairs():
    for u in ALL_LABELS:
        v = state_vector(u)
        assert abs(np.vdot(v, v).real - 1) <= 1e-15
        assert abs(np.vdot(v, state_vector(conjugate_flip(u)))) <= 1e-15


def test_mutually_unbiased_bases():
    for u, w in itertools.product(ALL_LABELS, ALL_LABELS):
        if basis_of(u) != basis_of(w):
            overlap = abs(np.vdot(state_vector(u), state_vector(w))) ** 2
            assert abs(overlap - 0.5) <= 1e-15


@given(st.sampled_from(ALL_LABELS))
def test_conjugate_flip_is_involution(u):
    assert conjugate_flip(conjugate_flip(u)) == u
    assert basis_of(conjugate_flip(u)) == basis_of(u)


def test_flip_table():
    assert conjugate_flip("0") == "1"
    assert conjugate_flip("-") == "+"
    assert conjugate_flip("R") == "L"


def test_encoding_table():
    # basis_labels(basis)[bit] is the label that carries a bit.
    assert basis_labels("Z")[0] == "0"
    assert basis_labels("X")[1] == "-"
    assert basis_labels("Y")[0] == "R"


def test_unknown_inputs_rejected():
    with pytest.raises(ValueError):
        state_vector("Q")
    with pytest.raises(ValueError):
        basis_labels("W")
    with pytest.raises(ValueError):
        conjugate_flip("Q")


def test_protocol_basis_sets():
    assert Protocol.BB84.bases == ("Z", "X")
    assert Protocol.SIX_STATE.bases == ("Z", "X", "Y")
    assert Protocol.BB84.sift_probability == 0.5
    assert abs(Protocol.SIX_STATE.sift_probability - 1 / 3) <= 1e-16


def test_serialized_labels_are_the_wire_format():
    # CSV/JSON output uses the labels themselves.
    assert set(ALL_LABELS) == set("01+-RL")
    for basis in ("Z", "X", "Y"):
        u0, u1 = basis_labels(basis)
        assert basis_of(u0) == basis_of(u1) == basis
