"""Seeded op generators for the benchmark's workloads.

Each workload is an endless sequence of ``symqkd`` commands for one client
in a closed loop: the next op is sent only after the previous one returns.
The sequence depends on nothing but the workload seed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count

CURVE_GRID = 200
SIM_ROUNDS = 2**21
MINIMIZE_GRID = 2000

# Attack angle range of the simulate ops. It keeps the QBER between 1% and
# 48% (BB84 diagonal 1.0-46%, six-state 2.0-48%), where the estimated QBER's
# own standard error is a sound yardstick for the 6-sigma output check.
SIM_X_RANGE = (0.2, 1.5)
D_TARGET_RANGE = (0.01, 0.3)

# Exact composition of every block of ten point_queries ops.
POINT_MIX = ("verify-bb84",) * 4 + ("verify-six-state",) * 2 + ("minimize",) * 3 + ("threshold",)


@dataclass(frozen=True)
class Op:
    """One CLI call: a command and its options, without the leading ``--``."""

    command: str
    args: tuple[tuple[str, str], ...]

    @property
    def argv(self) -> list[str]:
        out = [self.command]
        for key, value in self.args:
            out += ["--" + key, value]
        return out

    @property
    def kind(self) -> str:
        """Label used to count ops: the command plus its protocol, if any."""
        protocol = self.get("protocol")
        return self.command if protocol is None else f"{self.command}/{protocol}"

    def get(self, key: str) -> str | None:
        return dict(self.args).get(key)


def rate_curve(seed: int) -> Iterator[Op]:
    """``curve --grid 200``, cycling bb84/six-state and csv/json; the seed picks the phase."""
    for k in count(random.Random(seed).randrange(4)):
        protocol = ("bb84", "six-state")[k % 2]
        fmt = ("csv", "json")[(k // 2) % 2]
        yield Op("curve", (("protocol", protocol), ("grid", str(CURVE_GRID)), ("format", fmt)))


def monte_carlo(seed: int) -> Iterator[Op]:
    """``simulate --rounds 2**21`` with protocol, ``--x`` and a 64-bit ``--seed`` drawn per op."""
    rng = random.Random(seed)
    while True:
        protocol = rng.choice(("bb84", "six-state"))
        x = rng.uniform(*SIM_X_RANGE)
        yield Op(
            "simulate",
            (
                ("protocol", protocol),
                ("x", repr(x)),
                ("rounds", str(SIM_ROUNDS)),
                ("seed", str(rng.getrandbits(64))),
            ),
        )


def point_queries(seed: int) -> Iterator[Op]:
    """Single-attack queries in blocks of ten with the exact ``POINT_MIX``, shuffled per block."""
    rng = random.Random(seed)
    while True:
        block = list(POINT_MIX)
        rng.shuffle(block)
        for kind in block:
            if kind == "verify-bb84":
                # y < pi: y = pi gives QBER 1, outside the documented attack domain.
                x, y = rng.uniform(0.0, math.pi), math.pi * rng.random()
                yield Op("verify", (("protocol", "bb84"), ("x", repr(x)), ("y", repr(y))))
            elif kind == "verify-six-state":
                # --y is omitted: six-state pins it to pi/2.
                yield Op("verify", (("protocol", "six-state"), ("x", repr(rng.uniform(0.0, math.pi)))))
            elif kind == "minimize":
                d_target = rng.uniform(*D_TARGET_RANGE)
                yield Op("minimize", (("d-target", repr(d_target)), ("grid", str(MINIMIZE_GRID))))
            else:
                yield Op("threshold", (("protocol", rng.choice(("bb84", "six-state"))),))


WORKLOADS = {
    "rate_curve": rate_curve,
    "monte_carlo": monte_carlo,
    "point_queries": point_queries,
}
