"""Command-line interface.

Subcommands: codes, validate, syndrome-table, distance, simulate,
threshold.  Exit codes: 0 ok, 2 configuration error (any input the
library rejects), 3 runtime error (I/O); failures print a single
machine-greppable ERR_CONFIG/ERR_RUNTIME line to stderr.  All qubit
labels in output are 1-based and CSV output is byte-reproducible for a
fixed seed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys

from . import __version__
from .code_library import get_code, registered_names
from .decoders import DecoderError, LookupDecoder, MwpmDecoder
from .montecarlo import sweep, threshold_scan
from .noise import CHANNELS
from .pauli import enumerate_paulis, format_sparse
from .stabilizer_code import DISTANCE_SEARCH_GUARD, distance as code_distance

CONFIG_ERROR = 2
RUNTIME_ERROR = 3


def _emit(chunks, out: str | None):
    """Write each string of `chunks`, as it is made, to the file `out` or
    to stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


def cmd_codes(args) -> int:
    for name in registered_names():
        print(name)
    print("surface_d<lambda> is accepted for any lambda >= 2")
    return 0


def cmd_validate(args) -> int:
    code = get_code(args.code)
    report = code.validate(distance_max_weight=args.check_distance)
    if report.ok:
        print(f"valid, k={code.k}")
        return 0
    for problem in report.problems:
        print(f"invalid: {problem}")
    raise ValueError(f"code {code.name} failed validation")


def _letters(args) -> tuple[str, ...]:
    """--letters with repeats dropped, in order; all three by default."""
    return tuple(dict.fromkeys(args.letters or ("X", "Y", "Z")))


def cmd_syndrome_table(args) -> int:
    code, letters = get_code(args.code), _letters(args)
    weights = range(min(args.max_weight, code.n) + 1)
    rows = sum(math.comb(code.n, w) * len(letters) ** w for w in weights)
    if not 0 <= args.max_weight <= code.n or rows > DISTANCE_SEARCH_GUARD:
        raise ValueError(f"max_weight must be in 0..{code.n} and list at most"
                         f" {DISTANCE_SEARCH_GUARD:,} Paulis; {args.max_weight} lists {rows:,}")
    rows = (f"{format_sparse(p)}\t{code.syndrome(p)}\n" for w in weights
            for p in enumerate_paulis(code.n, w, letters))
    _emit(itertools.chain(["error\tsyndrome\n"], rows), args.out)
    return 0


def cmd_distance(args) -> int:
    code = get_code(args.code)
    max_weight = code.n if args.max_weight is None else args.max_weight
    found = code_distance(code, max_weight, _letters(args))
    if found is None:
        print(f"distance > {max_weight}")
    else:
        print(f"distance {found}")
    return 0


def _build_decoder(args, code):
    if args.decoder == "lookup":
        return LookupDecoder(code, max_weight=args.max_weight)
    if args.max_weight is not None:
        raise ValueError(f"--max-weight is a lookup depth; --decoder {args.decoder} has no table")
    return None if args.decoder == "none" else MwpmDecoder(code)


def _p_grid(args) -> list[float]:
    ranged = args.log_grid or any(v is not None for v in (args.p_start, args.p_end, args.steps))
    if getattr(args, "p", None) is not None:
        if ranged:
            raise ValueError("give --p/--px or --p-start/--p-end/--steps, not both")
        return [args.p]
    if None in (args.p_start, args.p_end, args.steps):
        raise ValueError("give --p-start, --p-end and --steps (or one simulate point: --p/--px)")
    if not (math.isfinite(args.p_start) and math.isfinite(args.p_end)):
        raise ValueError("--p-start and --p-end must be finite")
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    if args.log_grid and (args.p_start <= 0 or args.p_end <= 0):
        raise ValueError("--log-grid needs --p-start and --p-end > 0")
    if args.p_end < args.p_start:
        raise ValueError("--p-end must not be below --p-start")
    if args.steps == 1:
        return [args.p_start]
    if args.log_grid:
        a, b = math.log(args.p_start), math.log(args.p_end)
        return [math.exp(a + (b - a) * i / (args.steps - 1)) for i in range(args.steps)]
    h = (args.p_end - args.p_start) / (args.steps - 1)
    return [args.p_start + h * i for i in range(args.steps)]


def cmd_simulate(args) -> int:
    code = get_code(args.code)
    grid = _p_grid(args)
    decoder = _build_decoder(args, code)
    report = sweep(code, decoder, args.noise, grid, args.trials, args.seed, workers=args.threads)
    _emit([report.to_json() if args.format == "json" else report.to_csv()], args.out)
    return 0


def cmd_threshold(args) -> int:
    distances = [int(tok) for tok in args.distances.split(",")]
    grid = _p_grid(args)
    scan = threshold_scan(distances, grid, args.trials, args.seed, workers=args.threads)
    _emit([scan.to_json() if args.format == "json" else scan.to_csv()], args.out)
    print(
        f"p_th estimate: {scan.p_threshold:.4f} +/- {scan.sigma:.4f} "
        f"from {len(scan.crossings)} crossing(s)",
        file=sys.stderr,
    )
    return 0


def _add_grid_flags(sub):
    sub.add_argument("--p-start", type=float, default=None)
    sub.add_argument("--p-end", type=float, default=None)
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--log-grid", action="store_true")
    sub.add_argument("--trials", type=int, default=10000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stabkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"stabkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("codes", help="list registered codes")
    sub.set_defaults(func=cmd_codes)

    sub = subs.add_parser("validate", help="check every stabilizer-code invariant")
    sub.add_argument("code")
    sub.add_argument(
        "--check-distance",
        type=int,
        default=None,
        metavar="W",
        help="also cross-check the declared distance by search up to weight W",
    )
    sub.set_defaults(func=cmd_validate)

    sub = subs.add_parser("syndrome-table", help="TSV of errors and their syndromes")
    sub.add_argument("code")
    sub.add_argument("max_weight", type=int)
    sub.add_argument("--letters", nargs="+", choices=("X", "Y", "Z"), default=None)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_syndrome_table)

    sub = subs.add_parser("distance", help="exhaustive distance search")
    sub.add_argument("code")
    sub.add_argument("--max-weight", type=int, default=None)
    sub.add_argument("--letters", nargs="+", choices=("X", "Y", "Z"), default=None)
    sub.set_defaults(func=cmd_distance)

    sub = subs.add_parser("simulate", help="Monte Carlo logical-error-rate sweep")
    sub.add_argument("--code", required=True)
    sub.add_argument(
        "--decoder",
        choices=("lookup", "mwpm", "none"),
        default="lookup",
        help="none: post-select (detection codes)",
    )
    sub.add_argument("--noise", choices=tuple(CHANNELS), default="iid_x")
    sub.add_argument("--p", "--px", type=float, default=None, help="physical rate of one point")
    sub.add_argument("--max-weight", type=int, default=None, help="lookup-table build depth")
    _add_grid_flags(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("threshold", help="surface-code threshold-crossing scan")
    sub.add_argument("--distances", required=True, help="comma-separated lattice distances")
    _add_grid_flags(sub)
    sub.set_defaults(func=cmd_threshold)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, DecoderError) as exc:  # inputs the library rejects
        # str() of a KeyError is the repr of its message, quotes included.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"ERR_CONFIG: {message}", file=sys.stderr)
        return CONFIG_ERROR
    except OSError as exc:
        print(f"ERR_RUNTIME: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
