"""Command-line surface.

Exit codes: 0 certified / success, 1 usage or parse error, 2 randomized
construction exhausted its retries, 3 verification failure.  All
configuration goes through flags so runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from math import pi
from pathlib import Path

from . import bounds as bounds_mod
from .construct import (
    ConstructionError,
    RetriesExhausted,
    biuniform_construct,
    explicit_certificate,
    pipeline,
)
from .grid import feasibility_matrix_3x3, feasibility_matrix_4x4
from .pointfile import ParseError, parse, serialize
from .secants import census, richness_bound, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RETRIES = 2
EXIT_VERIFY = 3


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    if not (1 <= args.k <= args.n):
        print(f"error: need 1 <= k <= n, got k={args.k}, n={args.n}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.mode == "explicit":
            cert = explicit_certificate(args.n, args.k)
        elif args.mode == "biuniform":
            builder = feasibility_matrix_4x4 if args.matrix == "4x4" else feasibility_matrix_3x3
            matrix = builder(args.n, args.k)
            cert = biuniform_construct(
                args.n,
                args.k,
                matrix,
                seed=args.seed,
                max_retries=args.retries,
                target_reserve=args.reserve,
            )
        else:
            cert = pipeline(
                args.n, args.k, seed=args.seed, strict=args.strict, max_retries=args.retries
            )
    except RetriesExhausted as exc:
        cert = exc.certificate
    except (ConstructionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # the file and its sidecar describe the certificate alone: on
    # exhaustion that is the best sample, with its own n and k
    if cert.certified:
        status, code = "certified", EXIT_OK
    elif cert.per_retry_reserves:
        status, code = "retries exhausted", EXIT_RETRIES
    else:
        status, code = "not certified", EXIT_VERIFY
    report = cert.report
    lines = [
        f"status: {status}",
        f"lineage: {list(cert.lineage)}",
        f"axis max: {report.axis_max}",
        f"generic max: {report.generic_max}",
        f"achieved reserve: {report.achieved_reserve}",
        f"directions swept: {report.directions_swept}",
        f"retries used: {cert.retries_used}",
        f"per-retry reserves: {list(cert.per_retry_reserves)}",
        f"wall time: {time.perf_counter() - t0:.2f}s",
    ]
    reserve = report.required_reserve if cert.certified else None
    out = Path(args.out)
    try:
        out.write_text(serialize(cert.output, report.k, reserve=reserve, seed=cert.seed))
        out.with_name(out.name + ".report.txt").write_text("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: {exc.filename or out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    print(
        f"wrote {len(cert.output)} points to {out} ({lines[0]})",
        file=sys.stdout if cert.certified else sys.stderr,
    )
    return code


def cmd_verify(args) -> int:
    try:
        parsed = parse(Path(args.infile).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        print(f"error: {args.infile}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    k = args.k if args.k is not None else parsed.k
    try:
        report = verify(parsed.points, k, args.reserve)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.summary())
    print(f"points: {len(parsed.points)}  expected k*n: {k * parsed.points.n}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_stats(args) -> int:
    if args.j is None and args.kappa is None:
        print("error: one of --j / --kappa is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.j is not None:
            row = census(args.n, args.j)
            if args.csv:
                print("n,j,count")
                print(f"{row.n},{row.j},{row.count}")
            else:
                print(f"n={row.n} j={row.j} count={row.count}")
            if args.ratio:
                ref = (6 / pi**2) * args.n**4 / args.j**3
                print(f"reference (6/pi^2) n^4/j^3 = {ref:.2f}  ratio = {row.count / ref:.4f}")
        if args.kappa is not None:
            bound = richness_bound(args.n, args.kappa, args.L)
            print(f"richness bound L*n^4/kappa^3 = {bound:.2f} (L={args.L})")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_bounds(args) -> int:
    try:
        delta = float(Fraction(args.delta))
        prof = bounds_mod.compute_profile(
            args.n,
            p=args.p,
            epsilon=args.epsilon,
            delta=delta,
            h=args.reserve,
            m=args.m,
            K=args.K,
            L=args.L,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(
        f"n={prof.n} p={prof.p} epsilon={prof.epsilon} delta={prof.delta} "
        f"h={prof.h} m={prof.m} (bands={prof.band_count}) K={prof.K} L={prof.L}"
    )
    print(f"tail_coeff   = {prof.tail_coeff:.6f}")
    print(f"load_margin  = {prof.load_margin:.6f}")
    print(f"k_min        = {prof.k_min:.6f}")
    print(f"kappa_min    = {prof.kappa_min:.6f}")
    coeff = bounds_mod.growth_coefficient(args.epsilon, delta, args.m)
    print(f"growth coefficient of k_min: {coeff:.6f} * sqrt(n ln n)")
    rng = bounds_mod.feasible_k_range(args.n, args.C, args.m)
    if rng is None:
        print(f"feasible k range for C={args.C}: empty")
    else:
        print(f"feasible k range for C={args.C}: [{rng[0]}, {rng[1]}]")
        n0 = bounds_mod.smallest_feasible_n(args.C, args.m)
        print(f"smallest n with nonempty range at this C: {n0}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nkline",
        description="Construct and certify maximum no-(k+1)-in-line point sets on square grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a certified point set and write it to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["auto", "explicit", "biuniform"], default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=64)
    p.add_argument("--reserve", type=int, default=0, help="target reserve (biuniform mode)")
    p.add_argument("--matrix", choices=["4x4", "3x3"], default="4x4")
    p.add_argument("--strict", action="store_true", help="enforce the guaranteed-regime hypotheses")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a point-set file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=None, help="override the k recorded in the file")
    p.add_argument("--reserve", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="rich-secant census of the full grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, default=None, help="count secants with >= j grid points")
    p.add_argument("--kappa", type=float, default=None, help="print the n^4/kappa^3 bound")
    p.add_argument("--ratio", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--L", type=float, default=1.0)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bounds", help="constants and feasible parameter ranges")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", default="4/5")
    p.add_argument("--h", dest="reserve", type=int, default=15)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--C", type=float, default=12.5)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
