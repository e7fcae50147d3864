"""Outside-in span tracer for the ``symqkd`` package.

The tracer wraps the public functions of every ``symqkd`` module in a
span-recording wrapper while it is installed, and restores the originals
when it is removed. The package's source is never touched.

A function can be bound under several names: ``from .smallmat import
hermitian_eigenvalues`` copies the function object into ``rates`` and
``attack``. Wrapping only ``smallmat.hermitian_eigenvalues`` would miss
every call made through those copies, so the tracer replaces the function
in every ``symqkd.*`` namespace that holds it.

Spans are kept in memory as ``(function, start_ns, end_ns, parent, op)``
tuples; a span's parent is the index of the enclosing span, -1 for a root.
They are folded into per-function totals after every op, and the first
``KEEP_SPANS`` of them are retained to be written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections.abc import Callable
from pathlib import Path

PACKAGE = "symqkd"
KEEP_SPANS = 200_000  # spans written out at the end; the rest are only counted

# Scalar leaves whose body costs less than the wrapper around it. They are
# called O(grid) times per op (``rates.binary_entropy`` about 2,000 times per
# ``minimize``), so wrapping them would inflate exactly the layers the trace
# is meant to weigh. Their time is charged to the calling span.
SKIP = frozenset(
    {
        "rates.binary_entropy",
        "rates.branch_eigenvalue",
        "attack.qber_bb84",
        "attack.qber_six_state",
        "states.basis_labels",
        "states.basis_of",
        "states.conjugate_flip",
        "states.decode",
        "states.encode",
    }
)

# Counts taken from a traced call's result, at the same boundary as its span.
CountFn = Callable[[object], dict[str, float]]


def _threshold_counts(result) -> dict[str, float]:
    return {"iterations": result.iterations}


def _round_batch_counts(batch) -> dict[str, float]:
    # Computed, not measured: the bytes of the arrays the batch returns plus
    # the float64 uniforms it was drawn from (5 per round, the PCG64 contract).
    arrays = [v for v in vars(batch).values() if hasattr(v, "nbytes")]
    rounds = len(arrays[0])
    return {"rounds": rounds, "bytes_computed": sum(a.nbytes for a in arrays) + rounds * 5 * 8}


COUNTERS: dict[str, CountFn] = {
    "rates.find_threshold": _threshold_counts,
    "protosim.simulate_rounds": _round_batch_counts,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records a span for every call of a public ``symqkd`` function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.kept: list[tuple[int, int, int, int, int]] = []
        self.dropped = 0
        self.counts: dict[str, dict[str, float]] = {}
        self.op = -1
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[Callable, Callable]] = self._build()

    def _modules(self) -> list:
        return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _build(self) -> list[tuple[Callable, Callable]]:
        pairs = []
        for module in self._modules():
            layer = module.__name__.rpartition(".")[2]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in SKIP:
                    continue
                self.names.append(name)
                pairs.append((fn, self._wrap(len(self.names) - 1, fn, COUNTERS.get(name))))
        if not pairs:
            raise RuntimeError(f"no {PACKAGE} modules are imported; nothing to trace")
        return pairs

    def _wrap(self, index: int, fn: Callable, counter: CountFn | None) -> Callable:
        spans, stack, clock, name = self.spans, self._stack, time.perf_counter_ns, self.names[index]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, self.op)
            if counter is not None:
                totals = self.counts.setdefault(name, {})
                for key, value in counter(result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self, op: int) -> None:
        """Patch every binding of every traced function; calls now belong to ``op``."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        self.op = op
        by_id = {id(fn): wrapper for fn, wrapper in self._wrappers}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Put every original binding back."""
        while self._originals:
            module, attr, value = self._originals.pop()
            setattr(module, attr, value)

    def take(self) -> tuple[list[int], list[int]]:
        """Fold the spans recorded since the last call into per-function totals.

        Returns call counts and self time in ns, indexed like ``names``.
        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap. The
        spans move to ``kept`` (until it holds ``KEEP_SPANS`` of them) and the
        rest are counted in ``dropped``, which bounds the tracer's memory.
        """
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        spans = self.spans
        for index, start, end, parent, _ in spans:
            calls[index] += 1
            self_ns[index] += end - start
            if parent >= 0:
                self_ns[spans[parent][0]] -= end - start
        room = max(KEEP_SPANS - len(self.kept), 0)
        offset = len(self.kept)
        self.kept.extend(
            (index, start, end, parent + offset if parent >= 0 else -1, op)
            for index, start, end, parent, op in spans[:room]
        )
        self.dropped += max(len(spans) - room, 0)
        spans.clear()
        return calls, self_ns

    def write(self, path: Path) -> None:
        """Write the kept spans as CSV: span,name,start_ns,end_ns,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            names = self.names
            fh.writelines(
                f"{i},{names[s[0]]},{s[1]},{s[2]},{s[3]},{s[4]}\n" for i, s in enumerate(self.kept)
            )
