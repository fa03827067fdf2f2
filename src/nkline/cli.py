"""Command-line surface.

Exit codes: 0 certified / success, 1 usage or parse error, 2 randomized
construction exhausted its retries, 3 verification failure (`verify`
only; `construct` exits 0, 1 or 2).  All
configuration goes through flags so runs are reproducible.

Each command raises on a usage error, and `main` alone catches it: an
OSError, ValueError or ArithmeticError ends the run as one `error:`
line on stderr and exit 1, with nothing on stdout.

`construct` writes its point file as bytes with `pointfile.write_points`,
so no platform newline translation can reach the file.  The argument
parser is built once per process and reused by every `main` call.  Each
command imports the modules it runs when it runs, so a fresh process
that only verifies never loads the sampler, the construction or the
bounds.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction
from math import pi
from pathlib import Path


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RETRIES = 2
EXIT_VERIFY = 3


def cmd_construct(args) -> int:
    from .construct import RetriesExhausted, biuniform_construct, explicit_certificate, pipeline
    from .pointfile import write_points

    t0 = time.perf_counter()
    if not (1 <= args.k <= args.n):
        raise ValueError(f"need 1 <= k <= n, got k={args.k}, n={args.n}")
    if args.mode != "biuniform" and (args.reserve or args.matrix != "4x4"):
        raise ValueError(f"--reserve and --matrix act only under --mode biuniform, not {args.mode}")
    if args.mode == "explicit" and (args.seed is not None or args.retries is not None):
        raise ValueError("--seed and --retries act only under --mode auto or biuniform, not explicit")
    seed = 0 if args.seed is None else args.seed
    retries = 64 if args.retries is None else args.retries
    try:
        if args.mode == "explicit":
            cert = explicit_certificate(args.n, args.k)
        elif args.mode == "biuniform":
            from .grid import feasibility_matrix_3x3, feasibility_matrix_4x4

            builder = feasibility_matrix_4x4 if args.matrix == "4x4" else feasibility_matrix_3x3
            matrix = builder(args.n, args.k)
            cert = biuniform_construct(
                args.n,
                args.k,
                matrix,
                seed=seed,
                max_retries=retries,
                target_reserve=args.reserve,
            )
        else:
            cert = pipeline(args.n, args.k, seed=seed, max_retries=retries)
    except RetriesExhausted as exc:
        cert = exc.certificate

    # the file and its sidecar describe the certificate alone: on
    # exhaustion that is the best sample
    if cert.certified:
        status, code = "certified", EXIT_OK
    else:
        status, code = "retries exhausted", EXIT_RETRIES
    report = cert.report
    lines = [
        f"status: {status}",
        f"lineage: {list(cert.lineage)}",
        f"axis max: {report.axis_max}",
        f"generic max: {report.generic_max}",
        f"worst line: {report.worst_line_text}",
        f"achieved reserve: {report.achieved_reserve}",
        f"directions swept: {report.directions_swept}",
        f"retries used: {cert.retries_used}",
        f"per-retry reserves: {list(cert.per_retry_reserves)}",
        f"wall time: {time.perf_counter() - t0:.2f}s",
    ]
    reserve = report.required_reserve if cert.certified else None
    out = Path(args.out)
    with out.open("wb") as file:
        write_points(file, cert.output, report.k, reserve=reserve, seed=cert.seed)
    out.with_name(out.name + ".report.txt").write_text("\n".join(lines) + "\n")
    print(
        f"wrote {len(cert.output)} points to {out} ({lines[0]})",
        file=sys.stdout if cert.certified else sys.stderr,
    )
    return code


def cmd_verify(args) -> int:
    from .pointfile import read_points
    from .secants import verify

    with open(args.infile, "rb") as file:
        parsed = read_points(file)
    k = args.k if args.k is not None else parsed.k
    report = verify(parsed.points, k, args.reserve)
    print(report.summary())
    print(f"points: {len(parsed.points)}  expected k*n: {k * parsed.points.n}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_stats(args) -> int:
    from .secants import census, richness_bound

    if args.j is None and args.kappa is None:
        raise ValueError("one of --j / --kappa is required")
    # build every line first, so a usage error leaves stdout empty
    lines = []
    if args.j is not None:
        row = census(args.n, args.j)
        if args.csv:
            lines += ["n,j,count", f"{row.n},{row.j},{row.count}"]
        else:
            lines.append(f"n={row.n} j={row.j} count={row.count}")
        if args.ratio:
            ref = (6 / pi**2) * args.n**4 / args.j**3
            lines.append(f"reference (6/pi^2) n^4/j^3 = {ref:.2f}  ratio = {row.count / ref:.4f}")
    if args.kappa is not None:
        bound = richness_bound(args.n, args.kappa, args.L)
        lines.append(f"richness bound L*n^4/kappa^3 = {bound:.2f} (L={args.L})")
    print("\n".join(lines))
    return EXIT_OK


def cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    # compute everything first, so a usage error leaves stdout empty
    try:
        delta = float(Fraction(args.delta))
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"--delta={args.delta} is not a fraction a float holds: {exc}") from None
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
    coeff = bounds_mod.growth_coefficient(args.epsilon, delta, args.m)
    C = coeff if args.C is None else args.C
    rng = bounds_mod.feasible_k_range(args.n, C)
    n0 = None if rng is None else bounds_mod.smallest_feasible_n(C)
    label = f"{coeff:.6f}" if args.C is None else args.C
    print(
        f"n={prof.n} p={prof.p} epsilon={prof.epsilon} delta={prof.delta} "
        f"h={prof.h} m={prof.m} (bands={prof.band_count}) K={prof.K} L={prof.L}"
    )
    print(f"tail_coeff   = {prof.tail_coeff:.6f}")
    print(f"load_margin  = {prof.load_margin:.6f}")
    print(f"k_min        = {prof.k_min:.6f}")
    print(f"kappa_min    = {prof.kappa_min:.6f}")
    print(f"growth coefficient of k_min: {coeff:.6f} * sqrt(n ln n)")
    if rng is None:
        print(f"feasible k range for C={label}: empty")
    else:
        print(f"feasible k range for C={label}: [{rng[0]}, {rng[1]}]")
        print(f"smallest n with nonempty range at this C: {n0}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it takes longer than
    parsing with it, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nkline",
        description="Construct and certify maximum no-(k+1)-in-line point sets on square grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a certified point set and write it to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["auto", "explicit", "biuniform"], default="auto")
    p.add_argument("--seed", type=int, help="sampler seed, default 0 (auto and biuniform modes)")
    p.add_argument("--retries", type=int, help="retry cap, default 64 (auto and biuniform modes)")
    p.add_argument("--reserve", type=int, default=0, help="target reserve (biuniform mode)")
    p.add_argument("--matrix", choices=["4x4", "3x3"], default="4x4", help="block matrix (biuniform mode)")
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
    p.add_argument(
        "--C", type=float,
        help="C of the feasible range k >= C*sqrt(n ln n); by default the growth coefficient "
        "of --m, --epsilon and --delta printed above the range",
    )
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # the one error boundary: every command raises its usage errors
    try:
        return args.func(args)
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
