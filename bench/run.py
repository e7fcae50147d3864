"""Benchmark of the ``symqkd`` command line, driven in-process.

    python3 bench/run.py --workload rate_curve --seed 1 --seconds 35 --trace 0

Each run imports ``symqkd`` from ``src/`` of the checkout it sits in, then
calls ``symqkd.cli.main(argv)`` in a closed loop with stdout captured: one
client, the next op only after the previous one returned. Op arguments
come from the workload's seeded generator (``workloads.py``); every output
is checked against the benchmark's own reference formulas (``checks.py``).
The first op is warm-up and is not timed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every op
twice, untraced and then traced (``tracer.py``), and reports the per-layer
metrics plus the tracing overhead. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller run
record, and the kept spans of a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from tracer import Tracer, layer_of
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_OPS = 100  # so that p90 has at least 10 samples beyond it
LOOP_LIMIT_S = 120.0  # a run must end within 180 s even if the program slows down
SETUP_REPEATS = 7

LAYERS = ("cli", "rates", "attack", "smallmat", "states", "protosim")


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def declared_units(section: str) -> dict[str, str]:
    """Name to unit of the metrics ``BENCHMARK.json`` declares under ``section``."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec[section]}


def load_cli():
    """Import ``symqkd.cli`` from this checkout's ``src/``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import symqkd
        import symqkd.cli
    except ImportError as exc:
        raise SetupError(f"cannot import symqkd from {SRC}: {exc}") from exc
    if Path(symqkd.__file__).resolve().parent != SRC / "symqkd":
        raise SetupError(f"symqkd was imported from {symqkd.__file__}, not from {SRC}")
    return symqkd.cli


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing ``symqkd.cli``, in seconds."""
    start = time.perf_counter()
    # No timeout: with one, the wait polls with growing sleeps, which rounds
    # every sample up to the polling schedule.
    subprocess.run(
        [sys.executable, "-c", "import symqkd.cli"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_op(cli, op: Op) -> tuple[int | None, str, int]:
    """Call the CLI once; returns exit code (None on an exception), stdout and wall ns."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter_ns()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter_ns() - start
    return code, buf.getvalue(), elapsed


def verdict(op: Op, code: int | None, out: str) -> str | None:
    """Why the op failed, or None if it succeeded."""
    if code != 0:
        return f"exit code {code}"
    try:
        checks.check(op, out)
    except checks.CheckError as exc:
        return str(exc)
    return None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)

    def record(self, kind: str, reason: str | None) -> None:
        self.attempted += 1
        self.kinds[kind] += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{kind}: {reason}")
            print(f"op failed: {kind}: {reason}", file=sys.stderr)


def time_loop(seconds: float, count: int):
    """Yield (n, elapsed s) until ``seconds`` have passed and ``count`` ops ran, within the loop limit."""
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_LIMIT_S or (elapsed >= seconds and n >= count):
            return
        yield n, elapsed
        n += 1


def untraced_run(cli, name: str, ops, seconds: float, tally: Tally, record: dict) -> dict:
    latencies: list[int] = []
    completed = 0
    first: tuple[Op, str] | None = None
    setup_sample()  # may compile bytecode, which users pay once
    setup: list[float] = []
    for _, elapsed in time_loop(seconds, MIN_OPS):
        # Setup samples are spread over the run, between ops, so that their
        # median sees the same machine load as the ops do.
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_sample())
        op = next(ops)
        code, out, ns = run_op(cli, op)
        reason = verdict(op, code, out)
        tally.record(op.kind, reason)
        latencies.append(ns)
        completed += reason is None
        first = first or (op, out)
    # Read before the re-run below, whose reference draws are the benchmark's, not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    busy_s = sum(latencies) / 1e9
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] / 1e6,
        "ops_per_s": completed / busy_s,
        "peak_rss_mb": peak_rss_mb,
    }
    record["latency"] = {
        "samples": len(latencies),
        "percentiles": [50, 90],
        "method": "statistics.quantiles(method='inclusive')",
    }
    record["throughput"] = {"ops_per_s": metrics["ops_per_s"], "busy_s": busy_s}
    record["setup"] = {"samples_s": setup, "statistic": "median"}
    if name == "rate_curve":
        record["throughput"]["rate_points_per_s"] = metrics["ops_per_s"] * workloads.CURVE_GRID
    if name == "monte_carlo":
        record["throughput"]["rounds_per_s"] = metrics["ops_per_s"] * workloads.SIM_ROUNDS
        # Determinism: the first op again, byte for byte, and its counts
        # against the PCG64 draw contract.
        op, out = first
        code, again, _ = run_op(cli, op)
        reason = verdict(op, code, again)
        if reason is None and again != out:
            reason = "re-run with identical arguments printed different output"
        if reason is None:
            try:
                checks.check_draw_contract(op, again)
            except checks.CheckError as exc:
                reason = str(exc)
        tally.record("simulate/rerun", reason)
    return metrics


def traced_run(cli, ops, seconds: float, tally: Tally, record: dict, spans_path: Path) -> dict:
    tracer = Tracer()
    names = tracer.names
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    iso = names.index("attack.attack_isometry")
    verify_ops = verify_iso_calls = 0
    untraced_ns = traced_ns = out_bytes = 0
    n = 0
    for n, _ in time_loop(seconds, 1):
        op = next(ops)
        code, out, ns = run_op(cli, op)
        tally.record(op.kind, verdict(op, code, out))
        untraced_ns += ns
        tracer.install(n)
        try:
            code, traced_out, ns = run_op(cli, op)
        finally:
            tracer.remove()
        reason = verdict(op, code, traced_out)
        if reason is None and traced_out != out:
            reason = "traced output differs from untraced output"
        tally.record(op.kind + "/traced", reason)
        traced_ns += ns
        out_bytes += len(traced_out.encode())
        op_calls, op_self = tracer.take()
        calls = [a + b for a, b in zip(calls, op_calls)]
        self_ns = [a + b for a, b in zip(self_ns, op_self)]
        if op.command == "verify":
            verify_ops += 1
            verify_iso_calls += op_calls[iso]
    ops_traced = n + 1
    tracer.write(spans_path)

    def calls_of(name: str) -> int:
        return calls[names.index(name)]

    def counted(name: str, key: str) -> float:
        return tracer.counts.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    for i, name in enumerate(names):
        metrics[f"{name}.calls"] = calls[i] / ops_traced
        metrics[f"{name}.self_ms"] = self_ns[i] / ops_traced / 1e6
    for layer in LAYERS:
        layer_ns = sum(s for name, s in zip(names, self_ns) if layer_of(name) == layer)
        metrics[f"{layer}.self_ms"] = layer_ns / ops_traced / 1e6
        metrics[f"{layer}.self_frac"] = layer_ns / traced_ns
    rounds = counted("protosim.simulate_rounds", "rounds")
    metrics.update(
        {
            "smallmat.hermitian_eigenvalues.per_point": ratio(
                calls_of("smallmat.hermitian_eigenvalues"), calls_of("rates.dw_rate_numeric")
            ),
            "attack.attack_isometry.per_verify_op": ratio(verify_iso_calls, verify_ops),
            "rates.find_threshold.iterations": ratio(
                counted("rates.find_threshold", "iterations"), calls_of("rates.find_threshold")
            ),
            "protosim.ns_per_round": ratio(self_ns[names.index("protosim.simulate_rounds")], rounds),
            "protosim.bytes_per_round_computed": ratio(counted("protosim.simulate_rounds", "bytes_computed"), rounds),
            "cli.output_bytes": out_bytes / ops_traced,
            "trace.overhead_frac": traced_ns / untraced_ns - 1.0,
            "trace.self_coverage": sum(self_ns) / traced_ns,
        }
    )
    record["trace"] = {
        "ops_traced": ops_traced,
        "untraced_ops_per_s": ops_traced / (untraced_ns / 1e9),
        "traced_ops_per_s": ops_traced / (traced_ns / 1e9),
        "spans_total": len(tracer.kept) + tracer.dropped,
        "spans_written": len(tracer.kept),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "wrapped_functions": names,
        "bytes_note": "protosim.bytes_per_round_computed is computed from array sizes, not measured",
        "all_metrics": metrics,
    }
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        units = declared_units("per_layer" if args.trace else "end_to_end")
        cli = load_cli()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.environ["QKD_LOG"] = "error"  # diagnostics would only add stderr writes to every op

    import numpy
    import symqkd

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "symqkd": symqkd.__version__,
            "platform": platform.platform(),
        },
        "git_commit": git_commit(),
    }
    metrics: dict[str, float] = {}
    tally = Tally()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    warm = next(ops)
    code, out, _ = run_op(cli, warm)
    tally.record(warm.kind + "/warm-up", verdict(warm, code, out))

    if args.trace == 0:
        metrics.update(untraced_run(cli, args.workload, ops, args.seconds, tally, record))
    else:
        spans_path = OUT_DIR / f"{args.workload}-spans.csv"
        metrics.update(traced_run(cli, ops, args.seconds, tally, record, spans_path))
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: BENCHMARK.json declares metrics this run does not compute: {missing}", file=sys.stderr)
        return 1

    record["ops"] = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ops_frac": tally.failed / tally.attempted,
        "per_kind": dict(sorted(tally.kinds.items())),
        "failures": tally.failures,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"run record: {record_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
