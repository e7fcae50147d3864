import itertools
import math

import numpy as np
import pytest

from symqkd.attack import (
    ANGLE_CONDITIONS,
    BASE_CONDITIONS,
    AttackParams,
    attack_isometry,
    bob_state,
    branch_states,
    eve_average,
    eve_state,
    induced_ancillas,
    qber_bb84,
    verify_symmetry,
)
from symqkd.rates import holevo_information
from symqkd.smallmat import hermitian_eigenvalues, is_isometry, projector
from symqkd.states import LABELS, SIGNAL_STATES, Protocol, basis_labels, basis_rows, state_vector

# Frozen oracle values (binary entropies evaluated independently).
H_QUARTER = 0.8112781244591328
H_THIRD = 0.9182958340544896
TWO_H_QUARTER = 1.6225562489182657
S_EVE_SIX_AT_THIRD = 1.792481250360578  # D + H(D) + (1-D) H(D/(2(1-D))) at D = 1/3


def max_residual(residuals):
    """Largest residual over every key of a verify_symmetry dict and every attack."""
    return float(max(np.max(r) for r in residuals.values()))


def random_bb84_draws(n, seed=1148):
    rng = np.random.default_rng(seed)
    return [AttackParams("bb84", *rng.uniform(0.1, math.pi - 0.1, size=2)) for _ in range(n)]


def edge_batches():
    """A BB84 and a six-state batch: random angles plus the edges, a
    zero-weight flip branch (x = y = 0) and BB84 angles whose Y-basis
    residuals are far from round-off."""
    rng = np.random.default_rng(6021)
    edges = [0.0, 1e-9, math.pi / 2, 2.5, math.pi]
    xs = np.concatenate([rng.uniform(0, math.pi, 40), edges, [0.0, 0.7]])
    ys = np.concatenate([rng.uniform(0, math.pi, 40), edges[::-1], [0.0, 1.5]])
    keep = np.abs(2 - np.cos(xs) + np.cos(ys)) > 1e-3
    return [AttackParams("bb84", xs[keep], ys[keep]), AttackParams("six-state", xs)]


class TestQber:
    def test_zero_disturbance_for_any_y(self):
        for y in (0.0, 0.4, 1.3, 3.0):
            assert qber_bb84(0.0, y) == 0.0

    def test_exact_substitutions(self):
        assert abs(qber_bb84(math.pi / 3, math.pi / 3) - 0.25) <= 1e-15
        assert abs(qber_bb84(math.pi / 2, math.pi / 2) - 0.5) <= 1e-15
        assert AttackParams("six-state", 0.0).qber == 0.0
        assert abs(AttackParams("six-state", math.pi / 3).qber - 1 / 3) <= 1e-15
        assert abs(AttackParams("six-state", math.pi / 2).qber - 0.5) <= 1e-15

    def test_six_state_is_the_one_angle_formula_bit_for_bit(self):
        # cos(pi/2) is below half an ulp of 2 - cos x, so the BB84 formula at
        # y = pi/2 rounds to (1 - cos x)/(2 - cos x) exactly.
        xs = np.linspace(0.0, math.pi, 200_001)
        cx = np.cos(xs)
        assert AttackParams("six-state", xs).qber.tobytes() == ((1.0 - cx) / (2.0 - cx)).tobytes()

    def test_degenerate_denominator_guarded(self):
        with pytest.raises(ValueError):
            qber_bb84(0.0, math.pi)


class TestAttackParams:
    def test_angles_reduced_by_cosine_parity(self):
        p = AttackParams("bb84", -0.7, 2 * math.pi + 1.1)
        assert abs(p.x - 0.7) <= 1e-12
        assert abs(p.y - 1.1) <= 1e-12

    def test_canonical_angles_untouched(self):
        p = AttackParams("bb84", 0.7, 1.1)
        assert p.x == 0.7 and p.y == 1.1

    def test_six_state_pins_y(self):
        p = AttackParams("six-state", 1.0)
        assert p.y == math.pi / 2
        # pi/2 as printed with 12 significant digits is snapped back to pi/2.
        assert AttackParams(Protocol.SIX_STATE, 1.0, 1.57079632679).y == math.pi / 2
        for y in (0.3, math.pi / 2 + 2e-11):
            with pytest.raises(ValueError, match="pi/2"):
                AttackParams(Protocol.SIX_STATE, 1.0, y)

    def test_y_defaults_per_protocol_on_batches(self):
        xs = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(AttackParams(Protocol.BB84, xs).y, xs)
        assert np.array_equal(AttackParams(Protocol.SIX_STATE, xs).y, np.full(7, math.pi / 2))

    def test_unit_qber_rejected(self):
        # x = y = pi drives the flip weight to exactly 1.
        with pytest.raises(ValueError):
            AttackParams("bb84", math.pi, math.pi)

    def test_batches_compare_and_hash_by_identity(self):
        batch = AttackParams("bb84", [0.3, 0.5])
        assert batch == batch
        hash(batch)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            AttackParams("bb84", math.nan, 1.0)

    def test_fidelity_complements_qber_exactly(self):
        p = AttackParams("bb84", 0.9, 1.2)
        assert p.fidelity + p.qber == 1.0

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("x", [0.7, np.linspace(0.0, 3.0, 7)], ids=["one", "batch"])
    def test_protocol_name_builds_the_member_attack_bit_for_bit(self, protocol, x):
        by_name, by_member = AttackParams(protocol.value, x), AttackParams(protocol, x)
        assert by_name.protocol is protocol
        for name in ("x", "y", "qber", "isometry"):
            assert np.asarray(getattr(by_name, name)).tobytes() == np.asarray(getattr(by_member, name)).tobytes()
        named, member = verify_symmetry(by_name), verify_symmetry(by_member)
        assert list(named) == list(member)
        assert all(np.asarray(named[k]).tobytes() == np.asarray(member[k]).tobytes() for k in member)

    @pytest.mark.parametrize("protocol", ["BB84", "six_state", "", None, 1])
    def test_any_other_protocol_value_raises(self, protocol):
        with pytest.raises(ValueError, match="is not a valid Protocol"):
            AttackParams(protocol, 0.7)

    def test_qber_stored_from_the_reduced_angles(self):
        batch = AttackParams("bb84", [-0.7, 0.4], [2 * math.pi + 1.1, 0.4])
        assert batch.qber is batch.qber  # computed once, on construction
        assert np.array_equal(batch.qber, qber_bb84(batch.x, batch.y))
        assert AttackParams("six-state", 1.0).qber == qber_bb84(1.0, math.pi / 2)


def z_ancillas(params):
    """(F0, D0, F1, D1): the Z-basis ancillas of the attack's isometry."""
    return induced_ancillas(attack_isometry(params), "Z")


class TestAncillaStates:
    def test_noiseless_attack(self):
        f0, d0, f1, d1 = z_ancillas(AttackParams("bb84", 0.0, 0.0))
        np.testing.assert_array_equal(f0, [1, 0, 0, 0])
        np.testing.assert_array_equal(f1, [1, 0, 0, 0])
        np.testing.assert_array_equal(d0, [0, 0, 0, 0])
        np.testing.assert_array_equal(d1, [0, 0, 0, 0])

    def test_bb84_components_at_equal_angles(self):
        _, d0, f1, _ = z_ancillas(AttackParams("bb84", math.pi / 3, math.pi / 3))
        sf = math.sqrt(0.75)
        np.testing.assert_allclose(f1, [sf * 0.5, 0, 0, sf * math.sqrt(3) / 2], atol=1e-12)
        np.testing.assert_allclose(d0, [0, 0.5, 0, 0], atol=1e-12)

    def test_six_state_orthogonal_flip_ancillas(self):
        _, d0, _, d1 = z_ancillas(AttackParams("six-state", math.pi / 3))
        np.testing.assert_allclose(d1, [0, 0, 0.5773502691896258, 0], atol=1e-12)
        assert abs(np.vdot(d0, d1)) <= 1e-15


class TestBuildIsometry:
    def test_noiseless_is_identity_channel(self):
        v = attack_isometry(AttackParams("bb84", 0.0, 0.0))
        for u in ("0", "1"):
            out = v @ state_vector(u)
            expected = np.kron(state_vector(u), [1, 0, 0, 0])
            np.testing.assert_allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize(
        "params",
        [AttackParams("bb84", 0.7, 1.1), AttackParams("six-state", 2 * math.pi / 3)],
        ids=["bb84", "six-state"],
    )
    def test_isometry_property(self, params):
        assert is_isometry(attack_isometry(params), 1e-12)

    def test_real_entries_cast_to_complex(self):
        """The family is real: V is built and checked as float64, then returned as complex128."""
        v = attack_isometry(AttackParams("bb84", np.linspace(0.0, 3.0, 7), 0.4))
        assert v.dtype == np.complex128 and v.flags.c_contiguous
        assert v.imag.tobytes() == np.zeros(v.shape).tobytes()  # +0.0 everywhere, no -0.0

    @pytest.mark.parametrize(
        "protocol, x, y",
        [
            (Protocol.BB84, 0.7, 1.9),
            (Protocol.SIX_STATE, 1.0, None),
            (Protocol.BB84, np.linspace(0.0, 3.0, 7), 0.4),
            (Protocol.SIX_STATE, [0.2, 1.0, 3.1], None),
        ],
        ids=["bb84", "six-state", "bb84-batch", "six-state-batch"],
    )
    def test_params_keep_the_isometry_they_build(self, protocol, x, y):
        params = AttackParams(protocol, x, y)
        v = params.isometry
        assert v is params.isometry
        fresh = attack_isometry(params)
        assert (v.shape, v.dtype, v.tobytes()) == (fresh.shape, fresh.dtype, fresh.tobytes())
        with pytest.raises(ValueError, match="read-only"):
            v[..., 0, 0] = 0.0


class TestInducedAncillas:
    def test_x_basis_norm_reproduces_qber(self):
        # The X-basis branch weight equaling the fidelity is precisely what
        # fixes D(x, y); check it numerically.
        for params in random_bb84_draws(10):
            fu, _, fv, _ = induced_ancillas(attack_isometry(params), "X")
            for vec in (fu, fv):
                assert abs(np.vdot(vec, vec).real - params.fidelity) <= 1e-12

    def test_six_state_y_basis_branch_orthogonality(self):
        v = attack_isometry(AttackParams("six-state", 1.234))
        fu, du, _, _ = induced_ancillas(v, "Y")
        assert abs(np.vdot(fu, du)) <= 1e-12


class TestReducedStates:
    def test_bob_noiseless(self):
        v = attack_isometry(AttackParams("bb84", 0.0, 0.0))
        np.testing.assert_allclose(bob_state(v, "0"), projector([1, 0]), atol=1e-15)

    def test_bob_contraction_in_x_basis(self):
        v = attack_isometry(AttackParams("bb84", math.pi / 3, math.pi / 3))
        expected = 0.75 * projector(state_vector("+")) + 0.25 * projector(state_vector("-"))
        np.testing.assert_allclose(bob_state(v, "+"), expected, atol=1e-12)

    def test_bob_contraction_in_y_basis_fixes_flip_convention(self):
        # rho_B(R) = F |R><R| + D |L><L| is what forces R <-> L.
        v = attack_isometry(AttackParams("six-state", math.pi / 3))
        expected = (2 / 3) * projector(state_vector("R")) + (1 / 3) * projector(state_vector("L"))
        np.testing.assert_allclose(bob_state(v, "R"), expected, atol=1e-12)

    def test_bob_contraction_every_basis_every_label(self):
        for params in [AttackParams("bb84", 0.9, 1.4), AttackParams("six-state", 0.9)]:
            v = attack_isometry(params)
            f, d = params.fidelity, params.qber
            for basis in params.protocol.bases:
                for u in basis_labels(basis):
                    i = LABELS.index(u)  # the partner state is row i ^ 1
                    expected = f * projector(SIGNAL_STATES[i]) + d * projector(SIGNAL_STATES[i ^ 1])
                    assert np.linalg.norm(bob_state(v, u) - expected) <= 1e-12

    def test_eve_noiseless_is_pure(self):
        v = attack_isometry(AttackParams("bb84", 0.0, 0.0))
        np.testing.assert_allclose(eve_state(v, "0"), projector([1, 0, 0, 0]), atol=1e-15)

    def test_eve_spectrum_is_fidelity_and_qber(self):
        params = AttackParams("bb84", 1.1, 1.1)
        v = attack_isometry(params)
        for u in ("0", "1", "+", "-"):
            lam = hermitian_eigenvalues(eve_state(v, u))
            np.testing.assert_allclose(lam, [params.fidelity, params.qber, 0, 0], atol=1e-12)

    def test_eve_outer_product_form(self):
        params = AttackParams("six-state", 0.77)
        v = attack_isometry(params)
        for basis in params.protocol.bases:
            u0, u1 = basis_labels(basis)
            fu, du, fv, dv = induced_ancillas(v, basis)
            assert np.linalg.norm(eve_state(v, u0) - projector(fu) - projector(du)) <= 1e-12
            assert np.linalg.norm(eve_state(v, u1) - projector(fv) - projector(dv)) <= 1e-12

    def test_eve_half_half_spectrum_at_right_angle(self):
        v = attack_isometry(AttackParams("six-state", math.pi / 2))
        lam = hermitian_eigenvalues(eve_state(v, "0"))
        np.testing.assert_allclose(lam, [0.5, 0.5, 0, 0], atol=1e-12)

    def test_reduced_states_are_density_matrices(self):
        for params in random_bb84_draws(5) + [AttackParams("six-state", 1.9)]:
            v = attack_isometry(params)
            mats = [eve_average(v, "Z")]
            for basis in params.protocol.bases:
                for u in basis_labels(basis):
                    mats += [bob_state(v, u), eve_state(v, u)]
            for m in mats:
                lam = hermitian_eigenvalues(m)
                assert lam.min() >= -1e-12
                assert abs(lam.sum() - 1.0) <= 1e-12


    @pytest.mark.parametrize("labels", ["01", "01+-", "01+-RL"])
    def test_label_string_stacks_the_one_label_eve_states_bit_for_bit(self, labels):
        for params in [AttackParams("bb84", 0.7, 1.9), *edge_batches()]:
            v = params.isometry
            stack = eve_state(v, labels)
            assert stack.shape == np.shape(params.x) + (len(labels), 4, 4)
            for i, u in enumerate(labels):
                assert stack[..., i, :, :].tobytes() == eve_state(v, u).tobytes()

    @pytest.mark.parametrize("labels", ["", "0Q", "0 1"])
    def test_unknown_label_in_a_string_rejected(self, labels):
        v = AttackParams("bb84", 0.7).isometry
        for reduce in (bob_state, eve_state):
            with pytest.raises(ValueError, match="unknown signal label"):
                reduce(v, labels)


class TestEveAverage:
    def test_mean_of_the_one_label_states_bit_for_bit(self):
        for params in [AttackParams("bb84", 0.7, 1.9), *edge_batches()]:
            v = params.isometry
            for basis in ("Z", "X", "Y"):
                u0, u1 = basis_labels(basis)
                assert eve_average(v, basis).tobytes() == (0.5 * (eve_state(v, u0) + eve_state(v, u1))).tobytes()

    def test_noiseless_pure(self):
        v = attack_isometry(AttackParams("bb84", 0.0, 0.0))
        lam = hermitian_eigenvalues(eve_average(v, "Z"))
        np.testing.assert_allclose(lam, [1, 0, 0, 0], atol=1e-14)

    def test_basis_independent(self):
        for params in [AttackParams("bb84", 1.0, 1.0), AttackParams("six-state", 1.0)]:
            v = attack_isometry(params)
            bases = params.protocol.bases
            ref = eve_average(v, bases[0])
            for basis in bases[1:]:
                assert np.linalg.norm(eve_average(v, basis) - ref) <= 1e-12


class TestBranchStates:
    def test_branches_orthogonal(self):
        for params in random_bb84_draws(8):
            rho_f, rho_d = branch_states(attack_isometry(params), "Z")
            assert abs(np.trace(rho_f @ rho_d)) <= 1e-12

    def test_branch_spectra_match_angle_eigenvalue(self):
        params = AttackParams("bb84", math.pi / 3, math.pi / 3)
        rho_f, rho_d = branch_states(attack_isometry(params), "Z")
        np.testing.assert_allclose(hermitian_eigenvalues(rho_f), [0.75, 0.25, 0, 0], atol=1e-10)
        np.testing.assert_allclose(hermitian_eigenvalues(rho_d), [0.75, 0.25, 0, 0], atol=1e-10)

    def test_zero_weight_branch_is_zero_matrix(self):
        rho_f, rho_d = branch_states(attack_isometry(AttackParams("bb84", 0.0, 0.0)), "Z")
        assert np.array_equal(rho_d, np.zeros((4, 4)))
        assert abs(np.trace(rho_f) - 1.0) <= 1e-12

    def test_batch_rows_equal_single_attack_results(self):
        for batch in edge_batches():
            rho_f, rho_d = branch_states(attack_isometry(batch), "X")
            for i, (x, y) in enumerate(zip(batch.x, batch.y)):
                one = AttackParams(batch.protocol, float(x), float(y))
                one_f, one_d = branch_states(attack_isometry(one), "X")
                assert rho_f[i].tobytes() == one_f.tobytes() and rho_d[i].tobytes() == one_d.tobytes()

    def test_average_state_decomposes_over_branches(self):
        params = AttackParams("six-state", 1.3)
        v = attack_isometry(params)
        rho_f, rho_d = branch_states(v, "Z")
        recomposed = params.fidelity * rho_f + params.qber * rho_d
        assert np.linalg.norm(recomposed - eve_average(v, "Z")) <= 1e-12


class TestVerifySymmetry:
    def test_bb84_conditions_hold_in_protocol_bases(self):
        for params in random_bb84_draws(10):
            assert max_residual(verify_symmetry(params)) <= 1e-12

    def test_six_state_conditions_hold_in_all_three_bases(self):
        rng = np.random.default_rng(5150)
        for x in rng.uniform(0.1, math.pi - 0.1, size=10):
            residuals = verify_symmetry(AttackParams("six-state", float(x)))
            assert set(b for b, _ in residuals) == {"Z", "X", "Y"}
            assert max_residual(residuals) <= 1e-12

    def test_bb84_with_unequal_angles_breaks_y_basis(self):
        residuals = verify_symmetry(AttackParams("bb84", 0.7, 1.5), bases=("Y",))
        assert max(r for (_, c), r in residuals.items() if c in BASE_CONDITIONS) > 1e-3

    def test_every_condition_reported(self):
        residuals = verify_symmetry(AttackParams("bb84", 0.5, 0.9))
        assert set(c for _, c in residuals) == set(BASE_CONDITIONS + ANGLE_CONDITIONS)
        assert max_residual(residuals) <= 1e-12

    def test_batch_rows_equal_single_attack_results(self):
        for batch in edge_batches():
            report = verify_symmetry(batch, bases=("Z", "X", "Y"))
            for i, (x, y) in enumerate(zip(batch.x, batch.y)):
                one = AttackParams(batch.protocol, float(x), float(y))
                for key, value in verify_symmetry(one, bases=("Z", "X", "Y")).items():
                    assert type(value) is float
                    assert report[key][i].tobytes() == np.float64(value).tobytes(), (key, x, y)

    def test_single_attack_rows_keep_vdot_and_norm_arithmetic(self):
        # verify prints these round-off residuals to 12 digits, so they must
        # come out of the same sums as np.vdot and np.linalg.norm, bit for bit.
        for params in random_bb84_draws(40) + [AttackParams("six-state", 0.8)]:
            v = attack_isometry(params)
            report = verify_symmetry(params, bases=("Z", "X", "Y"))
            f, d = params.fidelity, params.qber
            for basis in ("Z", "X", "Y"):
                fu, du, fv, dv = induced_ancillas(v, basis)
                expected = {
                    "F_norm": max(abs(np.vdot(a, a).real - f) for a in (fu, fv)),
                    "D_norm": max(abs(np.vdot(a, a).real - d) for a in (du, dv)),
                    "FD_ortho": max(abs(np.vdot(fu, du)), abs(np.vdot(fv, dv))),
                    "FF_overlap": abs(np.vdot(fu, fv) - f * np.cos(params.x)),
                    "DD_overlap": abs(np.vdot(du, dv) - d * np.cos(params.y)),
                    "FD_cross": max(abs(np.vdot(fu, dv)), abs(np.vdot(fv, du))),
                }
                for condition, value in expected.items():
                    assert report[(basis, condition)] == value, (basis, condition)
                chan = comp = 0.0
                for u, anc_f, anc_d in zip(basis_labels(basis), (fu, fv), (du, dv)):
                    i = LABELS.index(u)
                    target_b = f * projector(SIGNAL_STATES[i]) + d * projector(SIGNAL_STATES[i ^ 1])
                    chan = max(chan, np.linalg.norm(bob_state(v, u) - target_b))
                    comp = max(comp, np.linalg.norm(eve_state(v, u) - (projector(anc_f) + projector(anc_d))))
                assert report[(basis, "channel_contraction")] == chan
                assert report[(basis, "complementary_output")] == comp

    @pytest.mark.parametrize("bases", [("X", "Z"), ("Y",), ("Y", "Z", "X")])
    def test_bases_in_any_order_or_subset_give_their_own_rows(self, bases):
        # All bases share one stacked pass; a basis's rows must not depend on
        # which other bases ride along, nor on their order.
        for params in [AttackParams("bb84", 0.7, 1.9)] + edge_batches():
            report = verify_symmetry(params, bases=bases)
            expected_keys = [(b, c) for b in bases for c in BASE_CONDITIONS[:3] + ANGLE_CONDITIONS]
            expected_keys += [(b, c) for b in bases for c in BASE_CONDITIONS[3:]]
            assert list(report) == expected_keys
            for basis in bases:
                for key, value in verify_symmetry(params, bases=(basis,)).items():
                    assert type(report[key]) is type(value)
                    assert np.array_equal(report[key], value), (key, bases)

    def test_empty_bases_rejected(self):
        with pytest.raises(ValueError, match="at least one basis"):
            verify_symmetry(AttackParams("bb84", 0.5, 0.9), bases=())


def _accepted_bb84(x, y):
    try:
        AttackParams("bb84", x, y)
    except ValueError:
        return False
    return True


class TestWholeDomain:
    """The paper's claim on a 121 x 121 grid over [0, pi]^2, edges included."""

    GRID = np.linspace(0.0, math.pi, 121)

    @pytest.fixture(scope="class")
    def bb84_grid(self):
        xs, ys = np.meshgrid(self.GRID, self.GRID, indexing="ij")
        keep = np.array([_accepted_bb84(float(x), float(y)) for x, y in zip(xs.flat, ys.flat)])
        return AttackParams("bb84", xs.ravel()[keep], ys.ravel()[keep])

    def test_grid_drops_only_points_on_the_y_equals_pi_edge(self, bb84_grid):
        # There D = (1 - cos x)/(1 - cos x) is 1 in exact arithmetic, and
        # (0, pi) has a vanishing denominator.
        assert bb84_grid.x.size == 120 * 121
        assert np.count_nonzero(bb84_grid.y < math.pi) == 120 * 121

    def test_bb84_conditions_hold_everywhere(self, bb84_grid):
        assert max_residual(verify_symmetry(bb84_grid)) <= 1e-12

    def test_six_state_conditions_hold_everywhere(self):
        residuals = verify_symmetry(AttackParams("six-state", self.GRID))
        assert set(b for b, _ in residuals) == {"Z", "X", "Y"}
        assert max_residual(residuals) <= 1e-12

    def test_bb84_y_basis_holds_only_on_the_six_state_line(self, bb84_grid):
        # BB84(x, pi/2) is the six-state attack for every x, and x = 0 is the
        # identity channel; everywhere else the Y basis breaks the symmetry.
        worst = np.max(np.stack(list(verify_symmetry(bb84_grid, bases=("Y",)).values())), axis=0)
        x, y = bb84_grid.x, bb84_grid.y
        on_line = (np.abs(y - math.pi / 2) <= 1e-12) | (x == 0.0)
        off_line = (x >= 0.05) & (np.abs(y - math.pi / 2) >= 0.05)
        assert on_line.sum() == 240
        assert worst[on_line].max() <= 1e-12
        assert worst[off_line].min() > 1e-5

    @staticmethod
    def chi(v, basis):
        """Eve's Holevo information on a key sifted in ``basis``, one value per attack of the stack v."""
        return holevo_information(eve_state(v, "".join(basis_labels(basis))))

    def test_bb84_chi_same_in_both_bases_everywhere(self, bb84_grid):
        v = bb84_grid.isometry
        chi_z = self.chi(v, "Z")
        assert np.abs(self.chi(v, "X") - chi_z).max() <= 1e-12
        # Y is no BB84 basis: off the six-state line Eve's information there
        # differs by up to a whole bit, reached at the corner (pi, 0).
        gap_y = np.abs(self.chi(v, "Y") - chi_z)
        x, y = bb84_grid.x, bb84_grid.y
        assert gap_y[(np.abs(y - math.pi / 2) <= 1e-12) | (x == 0.0)].max() <= 1e-12
        worst = np.argmax(gap_y)
        assert abs(gap_y[worst] - 1.0) <= 1e-12
        assert (x[worst], y[worst]) == (math.pi, 0.0)

    def test_mismatched_measurement_is_a_coin_flip_everywhere(self, bb84_grid):
        """Bob's outcome in every other protocol basis is 1/2 each: the simulator's shortcut on a basis mismatch."""
        for params in (bb84_grid, AttackParams("six-state", self.GRID)):
            v = params.isometry
            for alice_basis, bob_basis in itertools.permutations(params.protocol.bases, 2):
                kets = SIGNAL_STATES[basis_rows(bob_basis)]
                for u in basis_labels(alice_basis):
                    born = np.einsum("ki,...ij,kj->...k", kets.conj(), bob_state(v, u), kets).real
                    assert np.abs(born - 0.5).max() <= 1e-12, (params.protocol, u, bob_basis)

    def test_six_state_chi_same_in_all_three_bases_everywhere(self):
        v = AttackParams("six-state", self.GRID).isometry
        chi_z = self.chi(v, "Z")
        for basis in "XY":
            assert np.abs(self.chi(v, basis) - chi_z).max() <= 1e-12
