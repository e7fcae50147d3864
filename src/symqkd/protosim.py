"""Seedable Monte Carlo simulation of BB84/six-state rounds.

The simulator samples the classical statistics the channel induces: Bob's
outcome follows Alice's bit with probability F = 1 - D when the bases
match, and is uniform when they differ (mutually unbiased bases make every
mismatched measurement a coin flip; ``mismatch_outcome_check`` verifies
that shortcut against the actual reduced state). Neither bit is ever
formed: sifting drops every mismatched round, and on a kept round Bob's
bit differs from Alice's exactly when the outcome draw falls below D. Eve's
quantum memory is never simulated - her information is bounded analytically.

Randomness: numpy's PCG64, with exactly 5 draws consumed per round (bit,
Alice basis, Bob basis, outcome, estimation pick). Because the stream is
split by round index, a run may be partitioned into arbitrary blocks
without changing any result.

Execution: a run is cut into blocks of ``BLOCK_ROUNDS`` (2^15) rounds, and
the blocks run on a thread pool with one worker per available CPU (numpy
draws and ufuncs release the GIL). Each worker reduces its block to the
counts of three masks before taking the next, so memory is bounded by
workers x one block for any number of rounds. Results do not depend on the
worker count or the blocking.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .attack import AttackParams, bob_state
from .states import SIGNAL_STATES, basis_labels, basis_rows

__all__ = [
    "BLOCK_ROUNDS",
    "DRAWS_PER_ROUND",
    "ESTIMATION_FRACTION",
    "RNG_NAME",
    "RoundBatch",
    "SimConfig",
    "SimResult",
    "mismatch_outcome_check",
    "result_record",
    "run_simulation",
    "simulate_rounds",
]

RNG_NAME = "numpy-pcg64"
DRAWS_PER_ROUND = 5
# Share of the sifted rounds reserved for error estimation.
ESTIMATION_FRACTION = 0.1
# Rounds per block: 2^15 rounds draw 1.3 MB of uniforms, which keeps memory
# flat for any run length. Blocks of 2^14 to 2^18 ran 2^21 rounds in about
# the same time, 2x faster than one block.
BLOCK_ROUNDS = 2**15


@dataclass(frozen=True)
class SimConfig:
    """One reproducible protocol run; the protocol is the attack's."""

    params: AttackParams
    rounds: int
    seed: int

    def __post_init__(self) -> None:
        if np.ndim(self.params.x) != 0:
            raise ValueError("a simulation runs one attack, not a batch")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimResult:
    sifted_count: int
    sift_fraction: float
    qber_hat: float
    qber_se: float
    estimation_count: int


@dataclass(frozen=True)
class RoundBatch:
    """Per-round masks for a contiguous slice of a run.

    ``kept`` marks rounds whose bases match (they survive sifting);
    ``estimation_pick`` marks the kept rounds reserved for error estimation
    (the rest form the key); ``estimation_error`` marks the picked rounds
    where Bob's bit differs from Alice's.
    """

    kept: np.ndarray
    estimation_pick: np.ndarray
    estimation_error: np.ndarray


def _round_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms for rounds [start, start+count), identical for any blocking."""
    bg = np.random.PCG64(seed)
    if start:
        bg.advance(start * DRAWS_PER_ROUND)
    return np.random.Generator(bg).random((count, DRAWS_PER_ROUND))


def simulate_rounds(cfg: SimConfig, start: int, count: int) -> RoundBatch:
    """Simulate rounds [start, start+count) of the configured run.

    Bob's bit is never formed: estimation rounds are kept rounds, on which
    his bit differs from Alice's exactly when the outcome draw is below D.
    Alice's bit draw is consumed, by the 5-draw contract, but never read.
    """
    u = _round_uniforms(cfg.seed, start, count)
    n_bases = len(cfg.params.protocol.bases)
    alice_basis = np.minimum((u[:, 1] * n_bases).astype(np.uint8), n_bases - 1)
    bob_basis = np.minimum((u[:, 2] * n_bases).astype(np.uint8), n_bases - 1)
    kept = alice_basis == bob_basis
    estimation_pick = kept & (u[:, 4] < ESTIMATION_FRACTION)
    return RoundBatch(kept, estimation_pick, estimation_pick & (u[:, 3] < cfg.params.qber))


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_counts(cfg: SimConfig, start: int, count: int) -> tuple[int, int, int]:
    """(sifted, estimation, estimation errors) of one block; its masks die here."""
    batch = simulate_rounds(cfg, start, count)
    return tuple(np.count_nonzero(mask) for mask in (batch.kept, batch.estimation_pick, batch.estimation_error))


def run_simulation(cfg: SimConfig) -> SimResult:
    """Run the whole protocol and return sifted-key statistics.

    Deterministic in cfg (including the seed). The rounds are cut into
    blocks of ``BLOCK_ROUNDS`` that run on one worker thread per available
    CPU; neither the blocking nor the worker count ever changes the outcome.
    Memory is bounded by workers x one block for any number of rounds.
    """
    starts = range(0, cfg.rounds, BLOCK_ROUNDS)
    workers = min(_available_cpus(), len(starts))
    totals = np.zeros(3, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # A bounded window of futures, not Executor.map: map submits one
        # future per block up front (about 2 kB each), so memory would grow
        # with the run length.
        window: deque = deque()
        for start in starts:
            window.append(pool.submit(_block_counts, cfg, start, min(BLOCK_ROUNDS, cfg.rounds - start)))
            if len(window) > 2 * workers:
                totals += window.popleft().result()
        for future in window:
            totals += future.result()
    sifted, est_n, est_err = totals.tolist()
    qber_hat = est_err / est_n if est_n else 0.0
    var = qber_hat * (1.0 - qber_hat)
    qber_se = math.sqrt(var / est_n) if est_n and var > 0.0 else 0.0
    return SimResult(
        sifted_count=sifted,
        sift_fraction=sifted / cfg.rounds,
        qber_hat=qber_hat,
        qber_se=qber_se,
        estimation_count=est_n,
    )


def result_record(cfg: SimConfig, result: SimResult) -> dict:
    """JSON-ready record of a run (config echo plus statistics)."""
    return {
        "protocol": cfg.params.protocol.value,
        "x": cfg.params.x,
        "y": cfg.params.y,
        "D_analytic": cfg.params.qber,
        "rounds": cfg.rounds,
        "seed": cfg.seed,
        "sifted_count": result.sifted_count,
        "sift_fraction": result.sift_fraction,
        "qber_hat": result.qber_hat,
        "qber_se": result.qber_se,
        "estimation_count": result.estimation_count,
        "rng_name": RNG_NAME,
    }


def mismatch_outcome_check(v: np.ndarray, alice_u: str, bob_basis: str) -> tuple[float, float]:
    """Born probabilities of Bob's two outcomes in a non-matching basis.

    For any symmetric attack both come out 1/2, which is what licenses the
    simulator's uniform sampling on basis mismatch.
    """
    if alice_u in basis_labels(bob_basis):
        raise ValueError("bob_basis must differ from the basis of alice_u")
    rho = bob_state(v, alice_u)
    p0, p1 = (float(np.vdot(ket, rho @ ket).real) for ket in SIGNAL_STATES[basis_rows((bob_basis,))])
    return p0, p1
