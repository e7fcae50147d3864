"""Seedable Monte Carlo simulation of BB84/six-state rounds.

The simulator samples the classical statistics the channel induces: Bob's
outcome follows Alice's bit with probability F = 1 - D when the bases
match, and is uniform when they differ. That shortcut holds because
``attack.verify_symmetry``'s ``channel_contraction`` row checks that Bob's
state is the uniform contraction of the one sent, in every protocol basis,
and those bases are mutually unbiased, so a mismatched measurement is a coin
flip; a whole-domain test reads the coin flip from ``attack.bob_state``.
Neither bit is ever formed: sifting drops every mismatched round, and on a
kept round Bob's bit differs from Alice's exactly when the outcome draw
falls below D. Eve's quantum memory is never simulated - her information is
bounded analytically.

Randomness: numpy's PCG64, with exactly 5 draws consumed per round (bit,
Alice basis, Bob basis, outcome, estimation pick). Because the stream is
split by round index, a run may be partitioned into arbitrary blocks
without changing any result.

Execution: a run is cut into blocks of ``BLOCK_ROUNDS`` (2^14) rounds. One
worker thread per available CPU pulls the next block start from a shared
iterator (numpy draws and ufuncs release the GIL) and simulates that block
with ``simulate_rounds``. Each worker keeps one PCG64 stream, which it jumps
exactly to the start of every block it pulls, and one block-sized buffer,
which it refills with that block's uniforms; it adds the block's three mask
counts to its own totals. Memory is bounded by workers x one block for any
number of rounds, and results do not depend on the worker count or the
blocking.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .attack import AttackParams

__all__ = [
    "BLOCK_ROUNDS",
    "DRAWS_PER_ROUND",
    "ESTIMATION_FRACTION",
    "RNG_NAME",
    "RoundBatch",
    "SimConfig",
    "run_simulation",
    "simulate_rounds",
]

RNG_NAME = "numpy-pcg64"
DRAWS_PER_ROUND = 5
# Share of the sifted rounds reserved for error estimation.
ESTIMATION_FRACTION = 0.1
# Rounds per block: a worker's buffer holds 2^14 rounds of uniforms (655 KB),
# which keeps memory flat for any run length. With each worker's generator and
# buffer reused, blocks of 2^14 ran 2^21-round runs as fast as blocks of 2^15
# in 2.5 MB less peak RSS; blocks of 2^13 took 10% longer.
BLOCK_ROUNDS = 2**14


def _integer(name: str, value) -> int:
    """value as an int; anything but an int or a numpy integer, a bool included, raises ValueError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    """One reproducible protocol run; the protocol is the attack's.

    ``rounds`` and ``seed`` must be integers, and a bool is refused.
    ``rounds`` runs from 1 to 2**63 - 1, the range of the int64 counts.
    """

    params: AttackParams
    rounds: int
    seed: int

    def __post_init__(self) -> None:
        if np.ndim(self.params.x) != 0:
            raise ValueError("a simulation runs one attack, not a batch")
        for name in ("rounds", "seed"):  # numpy integers become ints too, so the record is JSON-ready
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 1 <= self.rounds < 2**63:
            raise ValueError(f"rounds must be between 1 and 2**63 - 1, not {self.rounds}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be between 0 and 2**64 - 1, not {self.seed}")


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


class _Stream:
    """A run's PCG64 stream and a buffer for the uniforms of up to ``rows`` rounds.

    ``at`` is the round the generator stands at: ``draw`` jumps it to any
    block start with PCG64's exact ``advance`` and refills the buffer, so a
    worker reuses one stream across all its blocks.
    """

    def __init__(self, seed: int, rows: int) -> None:
        self.generator = np.random.Generator(np.random.PCG64(seed))
        self.buffer = np.empty((rows, DRAWS_PER_ROUND))
        self.at = 0

    def draw(self, start: int, count: int) -> np.ndarray:
        """The uniforms of rounds [start, start+count), one round a row, in the buffer's first rows.

        A count larger than the buffer raises ValueError before the generator moves.
        """
        if count > len(self.buffer):
            raise ValueError(f"count {count} exceeds the stream buffer's {len(self.buffer)} rows")
        self.generator.bit_generator.advance((start - self.at) * DRAWS_PER_ROUND)
        self.at = start + count
        return self.generator.random(out=self.buffer[:count])


def simulate_rounds(cfg: SimConfig, start: int, count: int, stream: _Stream | None = None) -> RoundBatch:
    """Simulate rounds [start, start+count) of the configured run, identical for any blocking.

    A block outside the run (integers 0 <= start, 0 <= count, start + count <= rounds) raises ValueError.
    ``stream`` is a worker's generator and buffer, reused from block to
    block; without it this block draws from a fresh pair of its own.
    """
    start, count = _integer("start", start), _integer("count", count)
    if start < 0 or count < 0 or start + count > cfg.rounds:
        raise ValueError(f"start {start} and count {count} must be >= 0 with start + count <= rounds = {cfg.rounds}")
    if stream is None:
        stream = _Stream(cfg.seed, count)
    return _masks(stream.draw(start, count), len(cfg.params.protocol.bases), cfg.params.qber)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_simulation(cfg: SimConfig) -> dict:
    """Run the whole protocol; return a JSON-ready record of cfg and the sifted-key statistics.

    Deterministic in cfg (including the seed). One worker thread per
    available CPU pulls blocks of ``BLOCK_ROUNDS`` in turn and draws each
    into its one buffer of ``min(BLOCK_ROUNDS, rounds)`` rows from its one
    generator, and keeps its own counts, so memory is bounded by workers x
    one block for any number of rounds. Neither the blocking nor the worker
    count ever changes the outcome.
    """
    starts = range(0, cfg.rounds, BLOCK_ROUNDS)
    pending = iter(starts)
    lock = threading.Lock()

    def worker() -> np.ndarray:
        stream = _Stream(cfg.seed, min(BLOCK_ROUNDS, cfg.rounds))
        totals = np.zeros(3, dtype=np.int64)
        while True:
            with lock:
                start = next(pending, None)
            if start is None:
                return totals
            batch = simulate_rounds(cfg, start, min(BLOCK_ROUNDS, cfg.rounds - start), stream)
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

