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

Execution: a run is cut into blocks of ``BLOCK_ROUNDS`` (2^15) rounds. One
worker thread per available CPU pulls the next block start from a shared
iterator (numpy draws and ufuncs release the GIL), simulates that block with
``simulate_rounds`` and adds its three mask counts to its own totals.
Memory is bounded by workers x one block for any number of rounds, and
results do not depend on the worker count or the blocking.
"""

from __future__ import annotations

import math
import os
import threading
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
    "mismatch_outcome_check",
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
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers too, so the record is JSON-ready
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class RoundBatch:
    """Per-round masks for a contiguous slice of a run.

    ``kept`` marks rounds whose bases match (they survive sifting);
    ``estimation_pick`` marks the kept rounds reserved for error estimation
    (the rest form the key); ``estimation_error`` marks the picked rounds
    where Bob's bit differs from Alice's.

    A class, not a tuple: the benchmark's tracer reads ``vars(batch)`` to
    count rounds and bytes, and its traced smoke run fails without it.
    """

    kept: np.ndarray
    estimation_pick: np.ndarray
    estimation_error: np.ndarray


def _masks(u: np.ndarray, n_bases: int, qber: float) -> RoundBatch:
    """Masks of the rounds whose 5 uniforms are the rows of ``u``.

    No bit is formed: on a kept round Bob's bit differs from Alice's exactly
    when the outcome draw is below D, so Alice's bit draw is never read. A
    uniform, below 1, times n truncates to a basis index below n.
    """
    kept = (u[:, 1] * n_bases).astype(np.uint8) == (u[:, 2] * n_bases).astype(np.uint8)
    estimation_pick = kept & (u[:, 4] < ESTIMATION_FRACTION)
    return RoundBatch(kept, estimation_pick, estimation_pick & (u[:, 3] < qber))


def simulate_rounds(cfg: SimConfig, start: int, count: int) -> RoundBatch:
    """Simulate rounds [start, start+count) of the configured run, identical for any blocking."""
    bg = np.random.PCG64(cfg.seed)
    bg.advance(start * DRAWS_PER_ROUND)
    u = np.random.Generator(bg).random((count, DRAWS_PER_ROUND))
    return _masks(u, len(cfg.params.protocol.bases), cfg.params.qber)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_simulation(cfg: SimConfig) -> dict:
    """Run the whole protocol; return a JSON-ready record of cfg and the sifted-key statistics.

    Deterministic in cfg (including the seed). One worker thread per
    available CPU pulls blocks of ``BLOCK_ROUNDS`` in turn and keeps its own
    counts, so memory is bounded by workers x one block for any number of
    rounds. Neither the blocking nor the worker count ever changes the
    outcome.
    """
    starts = range(0, cfg.rounds, BLOCK_ROUNDS)
    pending = iter(starts)
    lock = threading.Lock()

    def worker() -> np.ndarray:
        totals = np.zeros(3, dtype=np.int64)
        while True:
            with lock:
                start = next(pending, None)
            if start is None:
                return totals
            batch = simulate_rounds(cfg, start, min(BLOCK_ROUNDS, cfg.rounds - start))
            totals += [np.count_nonzero(m) for m in (batch.kept, batch.estimation_pick, batch.estimation_error)]

    workers = min(_available_cpus(), len(starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker) for _ in range(workers)]
    sifted, est_n, est_err = sum(f.result() for f in futures).tolist()
    qber_hat = est_err / est_n if est_n else 0.0
    var = qber_hat * (1.0 - qber_hat)
    qber_se = math.sqrt(var / est_n) if est_n and var > 0.0 else 0.0
    return {
        "protocol": cfg.params.protocol.value,
        "x": cfg.params.x,
        "y": cfg.params.y,
        "D_analytic": cfg.params.qber,
        "rounds": cfg.rounds,
        "seed": cfg.seed,
        "sifted_count": sifted,
        "sift_fraction": sifted / cfg.rounds,
        "qber_hat": qber_hat,
        "qber_se": qber_se,
        "estimation_count": est_n,
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
