"""Command-line front-end: verify | curve | threshold | minimize | simulate.

The front-end parses arguments, formats what the library computes and maps
the outcome to an exit code; it computes no physics of its own. Results go
to stdout or --out; diagnostics go to stderr, gated by the QKD_LOG
environment variable (error|info|debug). Exit codes: 0 success, 1 I/O
failure, 2 invalid arguments, domain or size, 3 internal verification failure.

The argument parser is built on the first main() call and reused by every
later main() call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import re
import sys

from . import attack, protosim, rates
from .states import Protocol

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

VERIFY_TOL = 1e-9

# One curve row as a CSV line, and as the object json.dumps(indent=2) writes
# inside a list, to be filled with the JSON text of each CSV cell.
_CSV_ROW = ",".join(["%.12g"] * len(rates.CURVE_COLUMNS))
_JSON_ROW = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in rates.CURVE_COLUMNS) + "\n  }"

log = logging.getLogger("symqkd")


def _setup_logging() -> None:
    """Apply this call's QKD_LOG and current sys.stderr, replacing any earlier call's handler."""
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(os.environ.get("QKD_LOG", "error").strip().lower(), logging.ERROR)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    for old in log.handlers[:]:
        log.removeHandler(old)
    log.addHandler(handler)
    log.setLevel(level)


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    params = attack.AttackParams(Protocol(args.protocol), args.x, args.y)
    residuals = {f"{b}:{c}": r for (b, c), r in attack.verify_symmetry(params).items()}
    residuals["rate_identity"] = rates.dw_rate_numeric(params)["identity_residual"]

    width = max(len(k) for k in residuals)
    for name, value in residuals.items():
        print(f"{name:<{width}}  {_fmt(value)}")
    worst = max(residuals.values())
    print(f"{'max_residual':<{width}}  {_fmt(worst)}")
    if worst > VERIFY_TOL:
        log.error("verification failed: max residual %s", _fmt(worst))
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    """Print the rate curve as CSV or JSON.

    Every cell is printed once with %.12g, and that one pass serves both
    formats. A JSON value is the repr of the float its cell reads back as:
    the cell itself (plus '.0' if it has no '.'), re-formed only if it has
    an exponent. Every cell is finite: the library rejects non-finite values.
    """
    table = rates.rate_curve(Protocol(args.protocol), args.grid)
    n = len(table)
    log.info("curve: %d points, max |numeric - closed| = %s", n, _fmt(table[:, -1].max()))
    body = "\n".join([_CSV_ROW] * n) % tuple(table.ravel().tolist())
    if args.format == "csv":
        _emit(",".join(rates.CURVE_COLUMNS) + "\n" + body + "\n", args.out)
    else:
        cells = body.replace("\n", ",").split(",")
        cells = [repr(float(c)) if "e" in c else c if "." in c else c + ".0" for c in cells]
        _emit("[\n" + ",\n".join([_JSON_ROW] * n) % tuple(cells) + "\n]\n", args.out)
    return EXIT_OK


def cmd_threshold(args: argparse.Namespace) -> int:
    protocol = Protocol(args.protocol)
    t = rates.find_threshold(protocol)
    log.info("bisection converged in %d iterations", t.iterations)
    print(f"protocol:   {protocol.value}")
    print(f"D_star:     {t.D_star:.6f}")
    print(f"residual:   {_fmt(t.residual)}")
    print(f"iterations: {t.iterations}")
    return EXIT_OK


def cmd_minimize(args: argparse.Namespace) -> int:
    record = {"D_target": args.d_target, **rates.minimize_family_rate(args.d_target, args.grid)}
    for name, value in record.items():
        print(f"{name + ':':<10}{_fmt(value)}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    params = attack.AttackParams(Protocol(args.protocol), args.x, args.y)
    cfg = protosim.SimConfig(params=params, rounds=args.rounds, seed=args.seed)
    record = protosim.run_simulation(cfg)
    log.info(
        "simulated %d rounds: sifted %d, estimated QBER %s",
        cfg.rounds,
        record["sifted_count"],
        _fmt(record["qber_hat"]),
    )
    record = {k: float(_fmt(v)) if isinstance(v, float) else v for k, v in record.items()}
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the process's one shared parser, built on the first call.

    Every main() call parses with this same object, so callers must not
    mutate it (no add_argument, set_defaults or similar).
    """
    parser = argparse.ArgumentParser(
        prog="symqkd",
        description="Symmetric collective attacks and Devetak-Winter key rates for BB84 and six-state QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_protocol(p: argparse.ArgumentParser) -> None:
        p.add_argument("--protocol", required=True, choices=[member.value for member in Protocol])

    def add_angles(p: argparse.ArgumentParser) -> None:
        p.add_argument("--x", type=float, required=True, help="attack angle x in radians")
        p.add_argument(
            "--y",
            type=float,
            default=None,
            help="attack angle y in radians (bb84: defaults to x; six-state: must be pi/2)",
        )

    p = sub.add_parser("verify", help="check every symmetry and consistency condition of an attack")
    add_protocol(p)
    add_angles(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curve", help="tabulate numeric vs closed-form rates over the attack family")
    add_protocol(p)
    p.add_argument("--grid", type=int, default=100, help="number of x samples")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("threshold", help="bisect the closed-form rate to the security threshold")
    add_protocol(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("minimize", help="minimize the BB84 rate over attacks at fixed QBER")
    p.add_argument("--d-target", type=float, required=True, help="QBER at which to minimize")
    p.add_argument("--grid", type=int, default=2000, help="scan resolution")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("simulate", help="Monte Carlo protocol run through the attacked channel")
    add_protocol(p)
    add_angles(p)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in reversed(range(1, len(argv))):  # argparse takes -1e-3 or -inf for a flag: join it to its --option
        opt, value = argv[i - 1], argv[i]
        takes_value = opt[:2] == "--" and "=" not in opt and not "--help".startswith(opt)
        if takes_value and re.match(r"-(\d|\.|inf|nan)", value, re.I):
            argv[i - 1 : i + 1] = [f"{opt}={value}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:  # MemoryError: a --grid too large to allocate
        log.debug("usage error", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
