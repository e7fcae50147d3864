import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from symqkd import protosim
from symqkd.attack import AttackParams
from symqkd.protosim import (
    BLOCK_ROUNDS,
    DRAWS_PER_ROUND,
    ESTIMATION_FRACTION,
    RNG_NAME,
    SimConfig,
    run_simulation,
    simulate_rounds,
)


def bb84_at(d):
    return AttackParams("bb84", math.acos(1 - 2 * d))  # D(x, x) = (1 - cos x)/2


def six_at(d):
    return AttackParams("six-state", math.acos((1 - 2 * d) / (1 - d)))


def test_angle_helpers_hit_target_qber():
    assert abs(bb84_at(0.1).qber - 0.1) <= 1e-12
    assert abs(six_at(1 / 3).qber - 1 / 3) <= 1e-12


class TestConfig:
    def test_validation(self):
        params = bb84_at(0.1)
        with pytest.raises(ValueError):
            SimConfig(params=params, rounds=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(params=params, rounds=10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(params=params, rounds=10, seed=2**64)
        with pytest.raises(ValueError, match="batch"):
            SimConfig(params=AttackParams("bb84", [0.5, 0.6]), rounds=2, seed=1)

    @pytest.mark.parametrize("rounds", [1.5, 10.0, "10", True, np.True_])
    def test_non_integer_rounds_rejected(self, rounds):
        with pytest.raises(ValueError, match="rounds must be an integer"):
            SimConfig(params=bb84_at(0.1), rounds=rounds, seed=1)

    @pytest.mark.parametrize("seed", [1.5, 3.0, "3", False, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(params=bb84_at(0.1), rounds=10, seed=seed)

    def test_rounds_end_below_two_to_the_63(self):
        # The int64 counts hold any round count up to 2**63 - 1; neither config runs a simulation.
        assert SimConfig(params=bb84_at(0.1), rounds=2**63 - 1, seed=1).rounds == 2**63 - 1
        with pytest.raises(ValueError, match=r"between 1 and 2\*\*63 - 1, not 9223372036854775808"):
            SimConfig(params=bb84_at(0.1), rounds=2**63, seed=1)

    def test_numpy_integers_stored_as_int(self):
        cfg = SimConfig(params=bb84_at(0.1), rounds=np.int64(10), seed=np.uint64(3))
        assert (type(cfg.rounds), type(cfg.seed)) == (int, int)
        record = run_simulation(cfg)
        assert record == run_simulation(SimConfig(params=bb84_at(0.1), rounds=10, seed=3))
        json.dumps(record)

    def test_hashable(self):
        cfg = SimConfig(params=bb84_at(0.1), rounds=10, seed=1)
        assert cfg == cfg
        hash(cfg)


class TestRunSimulation:
    def test_noiseless_channel_has_zero_qber(self):
        cfg = SimConfig(params=AttackParams("bb84", 0.0, 0.0), rounds=100_000, seed=2024)
        result = run_simulation(cfg)
        assert result["qber_hat"] == 0.0
        assert result["qber_se"] == 0.0
        assert result["estimation_count"] > 0

    def test_deterministic_given_seed(self):
        cfg = SimConfig(params=bb84_at(0.1), rounds=50_000, seed=7)
        assert run_simulation(cfg) == run_simulation(cfg)

    def test_block_partitioning_never_changes_results(self, monkeypatch):
        cfg = SimConfig(params=six_at(0.2), rounds=100_000, seed=13)
        ref = run_simulation(cfg)
        for block in (1000, 7919, 99_999, 100_000):
            monkeypatch.setattr(protosim, "BLOCK_ROUNDS", block)
            assert run_simulation(cfg) == ref

    def test_default_blocks_match_one_whole_run_block(self, monkeypatch):
        cfg = SimConfig(params=bb84_at(0.15), rounds=3 * BLOCK_ROUNDS + 17, seed=2718)
        ref = run_simulation(cfg)
        monkeypatch.setattr(protosim, "BLOCK_ROUNDS", cfg.rounds)
        assert run_simulation(cfg) == ref

    @pytest.mark.parametrize("seed", [1, 988])
    def test_bb84_statistics_at_one_million_rounds(self, seed):
        d = 0.1
        cfg = SimConfig(params=bb84_at(d), rounds=1_000_000, seed=seed)
        result = run_simulation(cfg)
        assert abs(result["qber_hat"] - d) <= 4 * result["qber_se"]
        sift_se = math.sqrt(0.5 * 0.5 / cfg.rounds)
        assert abs(result["sift_fraction"] - 0.5) <= 4 * sift_se

    def test_six_state_statistics(self):
        d = 1 / 3
        cfg = SimConfig(params=six_at(d), rounds=1_000_000, seed=31)
        result = run_simulation(cfg)
        assert abs(result["qber_hat"] - d) <= 4 * result["qber_se"]
        third = 1 / 3
        sift_se = math.sqrt(third * (1 - third) / cfg.rounds)
        assert abs(result["sift_fraction"] - third) <= 4 * sift_se

    def test_counts_are_consistent(self):
        cfg = SimConfig(params=bb84_at(0.15), rounds=30_000, seed=5)
        result = run_simulation(cfg)
        assert result["estimation_count"] <= result["sifted_count"] <= cfg.rounds
        assert result["sift_fraction"] == result["sifted_count"] / cfg.rounds


def floor_masks(u, n, qber):
    """(kept, estimation pick, estimation error) of the rounds whose uniforms are the rows of u, by float floor."""
    alice_basis = np.minimum(np.floor(u[:, 1] * n), n - 1)
    bob_basis = np.minimum(np.floor(u[:, 2] * n), n - 1)
    kept = alice_basis == bob_basis
    pick = kept & (u[:, 4] < ESTIMATION_FRACTION)
    return kept, pick, pick & (u[:, 3] < qber)


def contract_masks(cfg, rounds):
    """The masks of rounds [0, rounds), drawn straight from the PCG64 contract."""
    u = np.random.Generator(np.random.PCG64(cfg.seed)).random((rounds, DRAWS_PER_ROUND))
    return floor_masks(u, len(cfg.params.protocol.bases), cfg.params.qber)


def contract_counts(cfg):
    """(sifted, estimation, estimation errors) drawn straight from the PCG64 contract."""
    return tuple(int(mask.sum()) for mask in contract_masks(cfg, cfg.rounds))


class TestDrawContract:
    # A ragged last block, and more blocks than the 2 workers of a 2-core host.
    ROUNDS = 3 * BLOCK_ROUNDS + 17

    @pytest.mark.parametrize("params", [bb84_at(0.11), six_at(0.2)], ids=["bb84", "six-state"])
    def test_counts_equal_the_contract(self, params):
        cfg = SimConfig(params=params, rounds=self.ROUNDS, seed=90210)
        sifted, est, err = contract_counts(cfg)
        result = run_simulation(cfg)
        assert result["sifted_count"] == sifted
        assert result["estimation_count"] == est
        assert result["qber_hat"] == err / est

    @pytest.mark.parametrize(
        "block_rounds, rounds",
        [
            pytest.param(None, ROUNDS, id="None"),
            pytest.param(1000, ROUNDS, id="1000"),
            pytest.param(None, 1, id="None-1"),
            pytest.param(1, 40, id="1-40"),
            pytest.param(7919, 1, id="7919-1"),
            pytest.param(7919, 5_000, id="7919-below-one-block"),
            pytest.param(7919, 3 * 7919 + 17, id="7919-ragged"),
        ],
    )
    def test_worker_count_never_changes_results(self, monkeypatch, block_rounds, rounds):
        if block_rounds is not None:
            monkeypatch.setattr(protosim, "BLOCK_ROUNDS", block_rounds)
        cfg = SimConfig(params=six_at(0.25), rounds=rounds, seed=4242)
        sifted, est, err = contract_counts(cfg)
        blocks = -(-rounds // protosim.BLOCK_ROUNDS)
        # Hand the GIL over often, so that a block two workers both pulled,
        # or one that none did, would show in the counts.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # One worker, three, and one per block (more CPUs than blocks).
            for cpus in (1, 3, blocks + 2):
                monkeypatch.setattr(protosim, "_available_cpus", lambda cpus=cpus: cpus)
                result = run_simulation(cfg)
                assert (result["sifted_count"], result["estimation_count"]) == (sifted, est), cpus
                assert result["qber_hat"] == (err / est if est else 0.0), cpus
        finally:
            sys.setswitchinterval(switch)

    def test_memory_is_flat_in_the_round_count(self, monkeypatch):
        # Each of the 2 workers holds one block of uniforms and its masks,
        # whatever the number of rounds.
        monkeypatch.setattr(protosim, "_available_cpus", lambda: 2)

        def peak_bytes(rounds):
            tracemalloc.start()
            try:
                run_simulation(SimConfig(params=bb84_at(0.1), rounds=rounds, seed=17))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(1)  # the first run's lazy imports (about 0.7 MB) are not the run's memory
        small, large = peak_bytes(2**20), peak_bytes(2**23)
        assert abs(large - small) <= 0.5e6
        assert large < 3 * BLOCK_ROUNDS * DRAWS_PER_ROUND * 8


class TestWorkerStream:
    """A worker draws every block it pulls from one PCG64 stream into one buffer."""

    # Gaps of several blocks between the starts one worker pulls, and a ragged last block.
    BLOCK = 1_000
    BLOCKS = [(0, 1_000), (1_000, 1_000), (4_000, 1_000), (9_000, 1_000), (14_000, 17)]

    @pytest.mark.parametrize("params", [bb84_at(0.11), six_at(0.2)], ids=["bb84", "six-state"])
    def test_reused_stream_equals_fresh_calls(self, params):
        cfg = SimConfig(params=params, rounds=14_017, seed=31337)
        stream = protosim._Stream(cfg.seed, self.BLOCK)
        for start, count in self.BLOCKS:
            reused, fresh = simulate_rounds(cfg, start, count, stream), simulate_rounds(cfg, start, count)
            for got, want in zip(vars(reused).values(), vars(fresh).values()):
                assert got.shape == (count,)
                np.testing.assert_array_equal(got, want)

    def test_masks_outlive_the_next_draw_into_the_buffer(self):
        cfg = SimConfig(params=bb84_at(0.11), rounds=2 * self.BLOCK, seed=8)
        stream = protosim._Stream(cfg.seed, self.BLOCK)
        first = simulate_rounds(cfg, 0, self.BLOCK, stream)
        kept = [mask.copy() for mask in vars(first).values()]
        simulate_rounds(cfg, self.BLOCK, self.BLOCK, stream)
        for mask, copy in zip(vars(first).values(), kept):
            assert not np.shares_memory(mask, stream.buffer)
            np.testing.assert_array_equal(mask, copy)

    def test_run_draws_each_block_once_through_simulate_rounds(self, monkeypatch):
        monkeypatch.setattr(protosim, "_available_cpus", lambda: 2)
        real, calls = protosim.simulate_rounds, []

        def counted(cfg, start, count, stream=None):
            batch = real(cfg, start, count, stream)
            calls.append((start, len(batch.kept), stream))
            return batch

        monkeypatch.setattr(protosim, "simulate_rounds", counted)
        cfg = SimConfig(params=six_at(0.2), rounds=3 * BLOCK_ROUNDS + 17, seed=99)
        run_simulation(cfg)
        assert len(calls) == math.ceil(cfg.rounds / BLOCK_ROUNDS) == 4
        assert sum(length for _, length, _ in calls) == cfg.rounds
        assert sorted(start for start, _, _ in calls) == list(range(0, cfg.rounds, BLOCK_ROUNDS))
        # Every block came from a worker's stream; there are at most 2 workers.
        streams = [stream for _, _, stream in calls]
        assert None not in streams and 1 <= len({id(stream) for stream in streams}) <= 2

    def test_one_round_run_allocates_no_full_block(self):
        cfg = SimConfig(params=bb84_at(0.1), rounds=1, seed=17)
        run_simulation(cfg)  # the first run's lazy imports are not the run's memory
        tracemalloc.start()
        try:
            run_simulation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK_ROUNDS * DRAWS_PER_ROUND * 8 / 4


class TestMasksKernel:
    @pytest.mark.parametrize("n", [2, 3])
    def test_largest_uniform_truncates_to_the_last_basis(self, n):
        # PCG64 uniforms are k / 2^53 with k < 2^53, so a basis index never needs a clamp.
        assert int(np.nextafter(1.0, 0.0) * n) == n - 1

    @pytest.mark.parametrize("params", [bb84_at(0.11), six_at(0.2)], ids=["bb84", "six-state"])
    def test_edge_uniforms_give_the_float_floor_masks(self, params):
        # Every basis cut, D and the estimation fraction, each with its two
        # float neighbours, plus both ends of [0, 1): all in every column.
        cuts = [1 / 3, 1 / 2, 2 / 3, params.qber, ESTIMATION_FRACTION]
        edges = {0.0, 1.0 - 2.0**-53}
        for cut in cuts:
            edges |= {cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0)}
        grid = np.array(list(itertools.product(sorted(edges), repeat=4)))
        u = np.column_stack([grid[:, :1], grid])
        n = len(params.protocol.bases)
        batch = protosim._masks(u, n, params.qber)
        for got, want in zip(vars(batch).values(), floor_masks(u, n, params.qber)):
            np.testing.assert_array_equal(got, want)
        assert batch.kept.any() and not batch.kept.all()
        assert batch.estimation_error.any()


class TestRoundBatch:
    @pytest.mark.parametrize("params", [bb84_at(0.11), six_at(0.2)], ids=["bb84", "six-state"])
    def test_masks_equal_the_contract(self, params):
        # A start inside the second block, off any block boundary, and a ragged count.
        start, count = BLOCK_ROUNDS + 1_237, 3_001
        cfg = SimConfig(params=params, rounds=start + count, seed=606)
        batch = simulate_rounds(cfg, start, count)
        assert list(vars(batch)) == ["kept", "estimation_pick", "estimation_error"]
        for got, want in zip(vars(batch).values(), contract_masks(cfg, start + count)):
            assert got.shape == (count,)
            np.testing.assert_array_equal(got, want[start:])

    def test_estimation_and_key_partition_the_sifted_set(self):
        cfg = SimConfig(params=bb84_at(0.1), rounds=10_000, seed=3)
        batch = simulate_rounds(cfg, 0, cfg.rounds)
        key_mask = batch.kept & ~batch.estimation_pick
        assert not np.any(key_mask & batch.estimation_pick)
        assert int(key_mask.sum()) + int(batch.estimation_pick.sum()) == int(batch.kept.sum())
        # estimation_error <= estimation_pick <= kept, as sets of rounds.
        assert not np.any(batch.estimation_error & ~batch.estimation_pick)
        assert not np.any(batch.estimation_pick & ~batch.kept)
        assert batch.estimation_error.any()

    def test_stream_split_by_round_index(self):
        cfg = SimConfig(params=six_at(0.25), rounds=2_000, seed=77)
        whole = simulate_rounds(cfg, 0, 2_000)
        tail = simulate_rounds(cfg, 1_500, 500)
        np.testing.assert_array_equal(whole.estimation_error[1_500:], tail.estimation_error)
        np.testing.assert_array_equal(whole.estimation_pick[1_500:], tail.estimation_pick)


class TestBlockBounds:
    """simulate_rounds draws only rounds the run has; any other block raises ValueError naming the bound."""

    CFG = SimConfig(params=bb84_at(0.1), rounds=100, seed=5)

    @pytest.mark.parametrize(
        "start, count, match",
        [
            (-5, 10, ">= 0"),
            (0, -1, ">= 0"),
            (95, 10, "<= rounds = 100"),
            (100, 1, "<= rounds = 100"),
            (0.5, 3, "start must be an integer"),
            (True, 3, "start must be an integer"),
            (0, 3.0, "count must be an integer"),
            (0, np.True_, "count must be an integer"),
        ],
    )
    def test_block_outside_the_run_rejected(self, start, count, match):
        with pytest.raises(ValueError, match=match):
            simulate_rounds(self.CFG, start, count)
        with pytest.raises(ValueError, match=match):
            simulate_rounds(self.CFG, start, count, protosim._Stream(self.CFG.seed, 16))

    def test_block_larger_than_the_stream_buffer_rejected(self):
        """The refused draw leaves the stream where it was: its next draw is a fresh stream's, bit for bit."""
        stream = protosim._Stream(self.CFG.seed, 16)
        with pytest.raises(ValueError, match="count 50 exceeds the stream buffer's 16 rows"):
            simulate_rounds(self.CFG, 0, 50, stream)
        fresh = protosim._Stream(self.CFG.seed, 16)
        assert stream.draw(40, 16).tobytes() == fresh.draw(40, 16).tobytes()

    @pytest.mark.parametrize("start", [0, 37, 100])
    def test_empty_block_is_empty(self, start):
        assert all(m.shape == (0,) for m in vars(simulate_rounds(self.CFG, start, 0)).values())

    def test_last_block_and_numpy_integers_accepted(self):
        whole = simulate_rounds(self.CFG, 0, 100)
        tail = simulate_rounds(self.CFG, np.int64(90), np.uint8(10))
        for got, want in zip(vars(tail).values(), vars(whole).values()):
            np.testing.assert_array_equal(got, want[90:])


class TestRecord:
    def test_exact_field_set(self):
        cfg = SimConfig(params=six_at(0.2), rounds=1_000, seed=9)
        record = run_simulation(cfg)
        assert list(record) == [
            "protocol",
            "x",
            "y",
            "D_analytic",
            "rounds",
            "seed",
            "sifted_count",
            "sift_fraction",
            "qber_hat",
            "qber_se",
            "estimation_count",
            "rng_name",
        ]
        assert record["protocol"] == "six-state"
        assert record["rng_name"] == RNG_NAME
        assert abs(record["D_analytic"] - 0.2) <= 1e-12

    def test_qber_se_formula(self):
        cfg = SimConfig(params=bb84_at(0.2), rounds=100_000, seed=21)
        result = run_simulation(cfg)
        expected = math.sqrt(result["qber_hat"] * (1 - result["qber_hat"]) / result["estimation_count"])
        assert abs(result["qber_se"] - expected) <= 1e-15


def test_draws_per_round_is_the_stream_contract():
    # 5 uniforms per round: bit, two bases, outcome, estimation pick.
    assert DRAWS_PER_ROUND == 5
