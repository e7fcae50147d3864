import math

import numpy as np
import pytest
from hypothesis import assume, given, reject
from hypothesis import strategies as st

from symqkd import rates
from symqkd.attack import (
    AttackParams,
    attack_isometry,
    branch_states,
    eve_average,
    eve_state,
)
from symqkd.rates import (
    CURVE_COLUMNS,
    _constrained_y,
    binary_entropy,
    branch_eigenvalue,
    closed_rate_bb84,
    closed_rate_six_state,
    closed_rate_six_state_alt,
    dw_rate_numeric,
    find_threshold,
    general_rate_bb84,
    holevo_information,
    minimize_family_rate,
    rate_curve,
    von_neumann_entropy,
)
from symqkd.smallmat import projector
from symqkd.states import Protocol, basis_labels

# Frozen oracle values, all evaluated independently and cross-checked
# against closed-form identities (e.g. H(1/4) = 2 - (3/4) log2 3).
H_QUARTER = 0.8112781244591328
H_THIRD = 0.9182958340544896
RATE_BB84_AT_QUARTER = -0.6225562489182657
RATE_SIX_AT_THIRD = -0.792481250360578
RATE_SIX_ENDPOINT = -0.5849625007211563  # 1 + log2(1/3)
BB84_THRESHOLD = 0.1100278644
SIX_THRESHOLD = 0.1261930833
RATE_BB84_AT_5PC = 0.4272060857680875
RATE_BB84_AT_11PC = 0.0001680836709440081


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_quarter(self):
        assert abs(binary_entropy(0.25) - H_QUARTER) <= 1e-15

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_and_bounded(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0
        assert abs(h - binary_entropy(1.0 - p)) <= 1e-12

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)
        assert binary_entropy(1e-13) >= 0.0  # round-off slack is absorbed


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) <= 1e-12

    def test_pure_projector(self):
        assert von_neumann_entropy(projector([1, 0, 0, 0])) <= 1e-12

    def test_matches_binary_entropy_on_diagonal(self):
        assert abs(von_neumann_entropy(np.diag([0.25, 0.75])) - H_QUARTER) <= 1e-12

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.diag([0.5, 0.6]))  # trace 1.1
        with pytest.raises(ValueError):
            von_neumann_entropy(np.diag([1.1, -0.1]))  # negative eigenvalue


class TestHolevo:
    def test_identical_states_carry_nothing(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0])
        assert holevo_information(rho, rho, rho) == 0.0

    def test_orthogonal_pure_states_carry_one_bit(self):
        a, b = projector([1, 0]), projector([0, 1])
        assert abs(holevo_information(0.5 * (a + b), a, b) - 1.0) <= 1e-12

    def test_bb84_attack_value(self):
        v = attack_isometry(AttackParams.bb84(math.pi / 3, math.pi / 3))
        rho_u, rho_f = eve_state(v, "0"), eve_state(v, "1")
        chi = holevo_information(0.5 * (rho_u + rho_f), rho_u, rho_f)
        assert abs(chi - H_QUARTER) <= 1e-9

    def test_average_mismatch_rejected(self):
        a, b = projector([1, 0]), projector([0, 1])
        with pytest.raises(ValueError):
            holevo_information(a, a, b)


def rate_record(params: AttackParams) -> dict:
    """``dw_rate_numeric``'s values after the attack's own x, y and D."""
    return {"x": params.x, "y": params.y, "D": params.qber, **dw_rate_numeric(params)}


class TestDwRateNumeric:
    def test_noiseless_channel(self):
        point = rate_record(AttackParams.bb84(0.0, 0.0))
        assert abs(point["R_DW"] - 1.0) <= 1e-12
        assert point["D"] == 0.0 and point["chi_AE"] <= 1e-12

    def test_bb84_at_quarter(self):
        point = rate_record(AttackParams.bb84(math.pi / 3, math.pi / 3))
        assert abs(point["R_DW"] - RATE_BB84_AT_QUARTER) <= 1e-9

    def test_six_state_at_third(self):
        point = rate_record(AttackParams.six_state(math.pi / 3))
        assert abs(point["R_DW"] - RATE_SIX_AT_THIRD) <= 1e-9

    def test_point_invariants(self):
        rng = np.random.default_rng(99)
        for x, y in rng.uniform(0.2, math.pi - 0.2, size=(8, 2)):
            params = AttackParams.bb84(float(x), float(y))
            point = rate_record(params)
            assert point["I_AB"] == 1.0 - binary_entropy(point["D"])
            assert point["R_DW"] == point["I_AB"] - point["chi_AE"]
            assert point["chi_AE"] >= 0.0
            # The same arithmetic on the same matrices, so equal to the bit.
            s_eve = von_neumann_entropy(eve_average(attack_isometry(params), "Z"))
            assert point["identity_residual"] == abs(point["R_DW"] - (1.0 - s_eve))

    def test_agrees_with_closed_form_on_grids(self):
        for x in np.linspace(0.0, math.pi, 22)[1:-1]:
            p_bb = AttackParams.bb84(float(x), float(x))
            assert abs(dw_rate_numeric(p_bb)["R_DW"] - (1 - 2 * binary_entropy(p_bb.qber))) <= 1e-9
            p_six = AttackParams.six_state(float(x))
            assert abs(dw_rate_numeric(p_six)["R_DW"] - closed_rate_six_state(p_six.qber)) <= 1e-9

    def test_holevo_same_in_every_protocol_basis(self):
        for params in [AttackParams.bb84(0.8, 1.3), AttackParams.six_state(1.1)]:
            v = attack_isometry(params)
            chis = []
            for basis in params.protocol.bases:
                u0, u1 = basis_labels(basis)
                rho_u, rho_f = eve_state(v, u0), eve_state(v, u1)
                chis.append(holevo_information(eve_average(v, basis), rho_u, rho_f))
            assert max(chis) - min(chis) <= 1e-9


class TestBranchEigenvalue:
    def test_values(self):
        assert branch_eigenvalue(0.0) == 0.0
        assert abs(branch_eigenvalue(math.pi / 2) - 0.5) <= 1e-15
        assert abs(branch_eigenvalue(2 * math.pi / 3) - 0.25) <= 1e-15

    def test_branch_entropy_decomposition(self):
        # S(rho_E) = H(D) + F H(b(x)) + D H(b(y)): the branch split carries
        # exactly H(D) bits, the rest sits inside the branches.
        rng = np.random.default_rng(31)
        for x, y in rng.uniform(0.2, math.pi - 0.2, size=(6, 2)):
            params = AttackParams.bb84(float(x), float(y))
            v = attack_isometry(params)
            rho_f, rho_d = branch_states(v, "Z")
            f, d = params.fidelity, params.qber
            split = von_neumann_entropy(eve_average(v, "Z")) - (
                f * von_neumann_entropy(rho_f) + d * von_neumann_entropy(rho_d)
            )
            assert abs(split - binary_entropy(d)) <= 1e-9
            assert abs(von_neumann_entropy(rho_f) - binary_entropy(branch_eigenvalue(params.x))) <= 1e-9
            assert abs(von_neumann_entropy(rho_d) - binary_entropy(branch_eigenvalue(params.y))) <= 1e-9


class TestClosedRates:
    def test_bb84_values(self):
        assert closed_rate_bb84(0.0) == 1.0
        assert abs(closed_rate_bb84(0.25) - RATE_BB84_AT_QUARTER) <= 1e-15

    def test_six_state_values(self):
        assert closed_rate_six_state(0.0) == 1.0
        assert abs(closed_rate_six_state(2 / 3) - RATE_SIX_ENDPOINT) <= 1e-12
        assert abs(closed_rate_six_state(1 / 3) - RATE_SIX_AT_THIRD) <= 1e-12

    def test_alt_form_values(self):
        assert closed_rate_six_state_alt(0.0) == 1.0
        assert abs(closed_rate_six_state_alt(1 / 3) - RATE_SIX_AT_THIRD) <= 1e-12

    def test_domains_enforced(self):
        for d in (-0.01, 1.01):  # the BB84 form holds on all of [0, 1]
            with pytest.raises(ValueError):
                closed_rate_bb84(d)
        with pytest.raises(ValueError):
            closed_rate_six_state(0.67)
        with pytest.raises(ValueError):
            closed_rate_six_state_alt(0.7)

    def test_two_six_state_forms_agree(self):
        for d in np.linspace(0.0, 2 / 3, 257):
            assert abs(closed_rate_six_state(float(d)) - closed_rate_six_state_alt(float(d))) <= 1e-12

    def test_strictly_decreasing_up_to_30_percent(self):
        ds = np.linspace(0.0, 0.3, 200)
        for fn in (closed_rate_bb84, closed_rate_six_state):
            vals = [fn(float(d)) for d in ds]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bb84_matches_numeric_rate_past_one_half(self):
        # On the diagonal x = y in [pi/2, pi) the QBER sweeps [1/2, 1), and 1 - 2 H(D) is still the rate.
        point = rate_record(AttackParams.bb84(np.linspace(math.pi / 2, math.pi, 4000, endpoint=False)))
        assert abs(point["D"].min() - 0.5) <= 1e-15 and point["D"].max() > 0.999
        np.testing.assert_allclose(closed_rate_bb84(point["D"]), point["R_DW"], rtol=0, atol=1e-12)

    def test_six_state_tolerates_more_noise(self):
        for d in np.linspace(0.01, 0.3, 30):
            assert closed_rate_six_state(float(d)) > closed_rate_bb84(float(d))


class TestGeneralRate:
    def test_diagonal_matches_bb84_closed_form(self):
        for x in np.linspace(0.1, math.pi - 0.1, 25):
            d = AttackParams.bb84(float(x), float(x)).qber
            assert abs(general_rate_bb84(float(x), float(x)) - (1 - 2 * binary_entropy(d))) <= 1e-12

    def test_mixed_angle_value(self):
        assert abs(general_rate_bb84(math.pi / 3, math.pi / 2) - RATE_SIX_AT_THIRD) <= 1e-12

    def test_zero_x_gives_unit_rate(self):
        for y in (0.3, 1.0, 2.0):
            assert abs(general_rate_bb84(0.0, y) - 1.0) <= 1e-15

    @given(st.floats(0.0, math.pi), st.floats(0.0, math.pi))
    def test_cross_checked_by_numeric_pipeline(self, x, y):
        try:  # QBER 1 or a vanishing 2 - cos x + cos y: no attack to rate
            params = AttackParams.bb84(x, y)
        except ValueError:
            reject()
        assert abs(dw_rate_numeric(params)["R_DW"] - general_rate_bb84(params.x, params.y)) <= 1e-9

    def test_cross_checked_over_the_whole_domain(self):
        # A 61x61 grid over [0, pi]^2 minus the edge y = pi, where QBER is 1
        # and the corner (0, pi) has a vanishing 2 - cos x + cos y.
        g = np.linspace(0.0, math.pi, 61)
        x, y = (a.ravel() for a in np.meshgrid(g, g))
        attack = y < math.pi
        assert attack.sum() == 60 * 61
        params = AttackParams.bb84(x[attack], y[attack])
        diff = np.abs(dw_rate_numeric(params)["R_DW"] - general_rate_bb84(params.x, params.y))
        assert diff.max() <= 1e-9

    # minimize_family_rate evaluates its golden-section points in batches; its
    # search path is the sequential one only if batch rows equal scalar calls.
    @given(st.lists(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)), min_size=1, max_size=70))
    def test_batch_rows_equal_scalar_calls_bit_for_bit(self, pairs):
        rows = []
        for x, y in pairs:
            try:  # a vanishing 2 - cos x + cos y: no rate to compare
                rows.append((x, y, general_rate_bb84(x, y)))
            except ValueError:
                pass
        assume(rows)
        x, y, scalar = (np.array(column) for column in zip(*rows))
        assert (general_rate_bb84(x, y) == scalar).all()

    def test_scalar_x_broadcasts_against_array_y(self):
        ys = np.linspace(0.0, math.pi, 33)
        batch = general_rate_bb84(0.7, ys)
        assert batch.shape == ys.shape
        assert (batch == np.array([general_rate_bb84(0.7, y) for y in ys])).all()


class TestBatches:
    def test_batch_point_compares_and_hashes_by_identity(self):
        params = AttackParams.bb84([0.3, 0.5])
        point = dw_rate_numeric(params)  # a plain dict; the attack hashes by identity
        assert point == point and params == params
        hash(params)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_each_row_equals_the_single_attack_call(self, protocol):
        rng = np.random.default_rng(8128)
        xs, ys = rng.uniform(0.0, math.pi - 0.05, size=(2, 40))
        if protocol is Protocol.SIX_STATE:
            ys = np.full_like(xs, math.pi / 2)
        batch = rate_record(AttackParams(protocol, xs, ys))
        for k in range(len(xs)):
            single = rate_record(AttackParams(protocol, float(xs[k]), float(ys[k])))
            for field in ("x", "y", "D", "I_AB", "chi_AE", "R_DW", "identity_residual"):
                assert abs(batch[field][k] - single[field]) <= 1e-15

    def test_one_out_of_domain_point_rejects_the_batch(self):
        ok = [0.3, 1.0, 2.0]
        with pytest.raises(ValueError):  # x = y = pi: QBER 1
            AttackParams.bb84(ok + [math.pi], ok + [math.pi])
        with pytest.raises(ValueError):  # x = 0, y = pi: degenerate denominator
            AttackParams.bb84(ok + [0.0], ok + [math.pi])
        with pytest.raises(ValueError):
            AttackParams.bb84(ok + [math.nan])
        with pytest.raises(ValueError, match="pi/2"):
            AttackParams(Protocol.SIX_STATE, ok, [math.pi / 2, math.pi / 2, 0.3])
        for fn, d in (
            (binary_entropy, [0.2, 1.01]),
            (closed_rate_bb84, [0.1, 1.01]),
            (closed_rate_six_state, [0.1, 0.67]),
            (closed_rate_six_state_alt, [0.1, 0.7]),
        ):
            with pytest.raises(ValueError):
                fn(np.array(d))
        with pytest.raises(ValueError):
            general_rate_bb84(np.array(ok + [0.0]), np.array(ok + [math.pi]))


class TestRateCurve:
    # Chunking the curve must keep these bits: the angle grid of one linspace
    # call, its exact last point included, and abs_diff from the same two columns.
    @pytest.mark.parametrize("grid", [2, 3, 200, 4097])
    @pytest.mark.parametrize("protocol, hi", [(Protocol.BB84, math.pi / 2), (Protocol.SIX_STATE, math.pi)])
    def test_angles_and_abs_diff_bit_for_bit(self, protocol, hi, grid):
        table = rate_curve(protocol, grid)
        assert table.shape == (grid, len(CURVE_COLUMNS))
        col = dict(zip(CURVE_COLUMNS, table.T))
        assert col["x"][-1] == hi
        assert col["x"].tobytes() == np.linspace(0.0, hi, grid).tobytes()
        assert col["abs_diff"].tobytes() == np.abs(col["R_DW_numeric"] - col["R_DW_closed"]).tobytes()

    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_grid_below_two_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must be at least 2"):
            rate_curve(Protocol.BB84, grid)


class TestThreshold:
    def test_bb84(self):
        t = find_threshold(Protocol.BB84)
        assert abs(t.D_star - BB84_THRESHOLD) <= 1e-8
        assert abs(t.D_star - 0.110028) <= 1e-6
        assert abs(t.residual) <= 1e-9

    def test_six_state(self):
        t = find_threshold(Protocol.SIX_STATE)
        assert abs(t.D_star - SIX_THRESHOLD) <= 1e-8
        assert abs(t.D_star - 0.126193) <= 1e-6

    def test_six_state_threshold_exceeds_bb84(self):
        assert find_threshold(Protocol.SIX_STATE).D_star > find_threshold(Protocol.BB84).D_star

    def test_sign_change_around_root(self):
        for protocol, fn in ((Protocol.BB84, closed_rate_bb84), (Protocol.SIX_STATE, closed_rate_six_state)):
            d_star = find_threshold(protocol).D_star
            assert fn(d_star - 0.01) > 0.0 > fn(d_star + 0.01)


class TestMinimizeFamilyRate:
    def test_five_percent(self):
        best = minimize_family_rate(0.05, 400)
        assert abs(best["R_min"] - RATE_BB84_AT_5PC) <= 1e-6
        assert abs(best["x_best"] - math.acos(0.9)) <= 1e-4
        assert abs(best["x_best"] - best["y_best"]) <= math.pi / 400

    def test_eleven_percent_sits_just_above_zero(self):
        best = minimize_family_rate(0.11, 400)
        assert abs(best["R_min"] - RATE_BB84_AT_11PC) <= 1e-6
        assert best["R_min"] > 0.0

    def test_quarter_lands_on_pi_thirds(self):
        best = minimize_family_rate(0.25, 400)
        assert abs(best["x_best"] - math.pi / 3) <= 1e-4
        assert abs(best["y_best"] - math.pi / 3) <= 1e-4
        assert abs(best["R_min"] - RATE_BB84_AT_QUARTER) <= 1e-6

    @pytest.mark.parametrize("grid", [2000, 2001, 5000])
    @pytest.mark.parametrize("d", [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45])
    def test_resolves_the_diagonal_to_sqrt_eps(self, d, grid):
        """What the search knows: the argmin to 1e-7, the rate to 1e-12.

        The rate is flat at its minimum, so golden-section search pins the
        argmin only to about sqrt(eps); the worst measured errors here are
        1.3e-8 in x, 6e-8 in y and 2.2e-16 in the rate.
        """
        best = minimize_family_rate(d, grid)
        x_star = math.acos(1.0 - 2.0 * d)
        assert abs(best["x_best"] - x_star) <= 1e-7
        assert abs(best["y_best"] - x_star) <= 1e-7
        assert abs(best["R_min"] - closed_rate_bb84(d)) <= 1e-12
        assert best["gap"] == abs(best["R_min"] - closed_rate_bb84(d))

    @given(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=70), st.floats(1e-6, 0.5, exclude_max=True))
    def test_constrained_y_rows_equal_scalar_calls_bit_for_bit(self, xs, d):
        y, feasible = _constrained_y(np.array(xs), d)
        for k, x in enumerate(xs):
            assert (y[k], feasible[k]) == _constrained_y(x, d)

    @pytest.mark.parametrize("grid", [100, 2000, 5001])
    @pytest.mark.parametrize("d", [0.01, 0.05, 0.11, 0.123, 0.25, 0.3, 0.45, 0.4999])
    def test_lookahead_depth_never_moves_the_search_path(self, d, grid, monkeypatch):
        """Depth 0 evaluates only the bracket's own two points, one step at a time.

        Unlike the printed pins in test_cli.py, this holds whatever the
        platform's float64 ufuncs round to.
        """
        batched = minimize_family_rate(d, grid)
        monkeypatch.setattr(rates, "_LOOKAHEAD", 0)
        assert minimize_family_rate(d, grid) == batched

    def test_golden_section_evaluates_its_points_in_batches(self, monkeypatch):
        """One scan, a handful of lookahead batches and the final point; 47 calls with one per point."""
        calls = []
        monkeypatch.setattr(rates, "general_rate_bb84", lambda x, y: calls.append(x) or general_rate_bb84(x, y))
        minimize_family_rate(0.11, 2000)
        assert len(calls) <= 12

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            minimize_family_rate(0.6, 400)
        with pytest.raises(ValueError):
            minimize_family_rate(0.05, 50)
