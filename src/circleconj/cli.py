"""Command-line front end.

Four subcommands: ``cf`` expands a quadratic surd and prints its stabilizer
generator; ``decide`` runs the conjugacy decision on two descriptor files;
``orbit`` samples an orbit to CSV (and optionally SVG); ``verify`` runs the
full decide -> realize -> numerically-check pipeline.  All output is JSON on
stdout (CSV/SVG only as files) and deterministic for a fixed seed.

Exit codes: 0 success (for decide: conjugate; for verify: verified),
1 negative result (not conjugate / verification failed), 2 invalid input,
3 undecided or not-applicable (verify on a non-conjugate pair, orbit on a
declared non-quadratic base point), 4 internal
error (an exact self-check of a computed certificate failed, or any other
unexpected exception, reported on one line).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

import mpmath

from .circlegroup import CircleGroupDescriptor, orbit_sample, orbit_svg, orbit_to_csv
from .conjugacy import (
    corrupt_witness,
    decide,
    verify_conjugation,
    witness_to_homeo,
)
from .exactnum import CertificateError, Surd, cf_expand, stabilizer_generator
from .homeo import CirclePoint, Precision

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4

# what unreadable files, malformed JSON, missing fields and invalid values raise
INPUT_ERRORS = (OSError, ValueError, TypeError, KeyError, ZeroDivisionError)


def _parse_surd(text: str) -> Surd:
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"malformed surd component {part!r} (expected key=value)")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate surd field {key!r}")
        fields[key] = int(value)
    return Surd.from_json(fields)


def _precision(args) -> Precision:
    return Precision(working_bits=args.precision_bits, singular_margin=args.delta)


def _invalid(exc: Exception) -> int:
    text = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    print(f"error: {text}", file=sys.stderr)
    return EXIT_INVALID


def _load_descriptor(path: str) -> CircleGroupDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:  # malformed input, nested deeper than the parser's stack
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return CircleGroupDescriptor.from_json(obj)


def _emit(obj: dict, out_path=None) -> None:
    limit = sys.get_int_max_str_digits()  # input keeps it; a generator T may be longer
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(obj, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_cf(args) -> int:
    try:
        surd = _parse_surd(args.surd)
        cf = cf_expand(surd)
        T = stabilizer_generator(surd)
    except INPUT_ERRORS as exc:
        return _invalid(exc)
    _emit(
        {
            "surd": surd.to_json(),
            "value": mpmath.nstr(surd.value(args.precision_bits), 30),
            "cf": cf.to_json(),
            "stabilizer_generator": T.to_json(),
        },
        args.out,
    )
    return EXIT_OK


def cmd_decide(args) -> int:
    try:
        d1 = _load_descriptor(args.d1)
        d2 = _load_descriptor(args.d2)
    except INPUT_ERRORS as exc:
        return _invalid(exc)
    dec = decide(d1, d2)
    _emit(dec.to_json(), args.out)
    if dec.verdict == "conjugate":
        return EXIT_OK
    if dec.verdict == "not_conjugate":
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED


def cmd_orbit(args) -> int:
    try:
        d = _load_descriptor(args.descriptor)
        try:
            t0 = Fraction(args.t0)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--t0 must be a decimal or a fraction p/q, got {args.t0!r}") from None
        if (t0 * d.k).denominator == 1:
            raise ValueError(f"t0 = {t0} is a marked point of the k = {d.k} orbit")
        p = _precision(args)
    except INPUT_ERRORS as exc:
        return _invalid(exc)
    if not isinstance(d.alpha, Surd):
        print("not applicable: a declared non-quadratic base point has no exact translation lengths",
              file=sys.stderr)
        return EXIT_UNDECIDED
    sample = orbit_sample(d, CirclePoint(t0), args.count, seed=args.seed, p=p)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(orbit_to_csv(sample))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(orbit_svg(sample, d.k))
    _emit(
        {
            "count": args.count,
            "seed": args.seed,
            "skipped": sample.skipped,
            "max_gap": mpmath.nstr(sample.max_gap, 12),
            "csv": args.out,
            "svg": args.svg,
        }
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        d1 = _load_descriptor(args.d1)
        d2 = _load_descriptor(args.d2)
        p = _precision(args)
        if 4 * d1.k * args.delta >= 1:  # no grid point would keep the trust margin
            raise ValueError(f"--delta must be below 1/(4k) = {1 / (4 * d1.k):g} for k = {d1.k}")
    except INPUT_ERRORS as exc:
        return _invalid(exc)
    dec = decide(d1, d2)
    if dec.verdict != "conjugate":
        _emit({"decision": dec.to_json(), "report": None}, args.out)
        return EXIT_UNDECIDED
    wit = dec.witness
    realized = corrupt_witness(d1, wit) if args.corrupt_witness else wit
    psi = witness_to_homeo(d1, d2, realized, check=not args.corrupt_witness)
    report = verify_conjugation(
        psi, d1, d2, wit, grid_size=args.grid, tol=args.tol, p=p, seed=args.seed
    )
    _emit(
        {
            "decision": dec.to_json(),
            "corrupt_witness": bool(args.corrupt_witness),
            "seed": args.seed,
            "report": report,
        },
        args.out,
    )
    return EXIT_OK if report["ok"] else EXIT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ValueError, for main to report on
    one line, instead of printing the usage block and exiting."""

    def error(self, message):
        raise ValueError(message)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """main's parser, built once: each parse fills a fresh namespace of its own."""
    # the shared flags, before or after the subcommand; with no default here
    # (main's namespace holds them), one given after it never clobbers one before
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--precision-bits", type=int, help="working precision")
    shared.add_argument("--delta", type=float, help="trust margin near breakpoints")
    shared.add_argument("--seed", type=int, help="seed for sampled grids")
    parser = _Parser(
        prog="circleconj",
        description="conjugacy engine for integer-lattice circle homeomorphism groups",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser(
        "cf", parents=[shared], help="continued fraction and stabilizer of a quadratic surd"
    )
    p_cf.add_argument("--surd", required=True, help="e.g. a=-1,b=1,c=1,d=2 for sqrt(2)-1")
    p_cf.add_argument("--out", default=None, help="also write the JSON to this file")
    p_cf.set_defaults(func=cmd_cf)

    p_dec = sub.add_parser("decide", parents=[shared], help="decide conjugacy of two descriptor files")
    p_dec.add_argument("d1")
    p_dec.add_argument("d2")
    p_dec.add_argument("--out", default=None)
    p_dec.set_defaults(func=cmd_decide)

    p_orb = sub.add_parser("orbit", parents=[shared], help="sample an orbit to CSV (and optional SVG)")
    p_orb.add_argument("descriptor")
    p_orb.add_argument("--t0", required=True, help="start point in [0,1), decimal or p/q")
    p_orb.add_argument("--count", type=int, default=1000)
    p_orb.add_argument("--out", required=True, help="CSV output path")
    p_orb.add_argument("--svg", default=None, help="optional SVG output path")
    p_orb.set_defaults(func=cmd_orbit)

    p_ver = sub.add_parser("verify", parents=[shared], help="decide, realize and numerically verify")
    p_ver.add_argument("d1")
    p_ver.add_argument("d2")
    p_ver.add_argument("--grid", type=int, default=48)
    p_ver.add_argument("--tol", type=float, default=1e-6)
    p_ver.add_argument("--corrupt-witness", action="store_true", help="negative-control mode")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


# (attribute, rule, test) for every numeric flag; a subcommand's own flags
# are checked only when it has them
_FLAG_RULES = (
    ("precision_bits", "--precision-bits must be at least 64", lambda v: v >= 64),
    ("delta", "--delta must be positive", lambda v: v > 0),
    ("tol", "--tol must be finite and positive", lambda v: 0 < v < math.inf),
    ("grid", "--grid must be at least 1", lambda v: v >= 1),
    ("count", "--count must be nonnegative", lambda v: v >= 0),
)


def main(argv=None) -> int:
    try:
        # the shared flags' defaults; set_defaults would write them into the
        # flags' actions, which the subparsers share
        args = build_parser().parse_args(argv, argparse.Namespace(precision_bits=256, delta=1e-4, seed=0))
    except ValueError as exc:
        return _invalid(exc)
    for name, rule, holds in _FLAG_RULES:
        if hasattr(args, name) and not holds(getattr(args, name)):
            return _invalid(ValueError(rule))
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a fault of the program, which must not read as exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
