"""Point-set constructions: the explicit large-k complement, the
bi-uniform randomized construction, reserve-consuming adjustments of k
and n, and the end-to-end pipeline.

Every construction output is certified by the sweep verifier rather
than trusted; randomized steps are reproducible from a master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from math import ceil, log, sqrt
from typing import Optional

import numpy as np

from .bifactor import (
    BipartiteFactor,
    _circulant,
    derive_seed,
    iter_matchings,
    sample_blocks,
)
from .grid import FeasibilityMatrix, PointSet, feasibility_matrix_4x4
from .secants import VerificationReport, verify


class ConstructionError(ValueError):
    """Invalid arguments or broken preconditions for a construction."""


class RetriesExhausted(RuntimeError):
    """All randomized retries failed; carries the best-effort certificate."""

    def __init__(self, certificate: "ConstructionCertificate"):
        super().__init__(
            f"no certified set within {certificate.retries_used} retries; "
            f"best achieved reserve {certificate.report.achieved_reserve}"
        )
        self.certificate = certificate


@dataclass(frozen=True)
class ConstructionCertificate:
    """Construction outcome.  Stores the seed, the (best) output set, its
    verification report, the ordered lineage of applied steps and the
    achieved reserve of each randomized retry.  n is `output.n` and k is
    `report.k`; certified and retries_used are derived."""

    seed: Optional[int]
    output: PointSet
    report: VerificationReport
    lineage: tuple[tuple[str, dict], ...]
    per_retry_reserves: tuple[int, ...] = ()

    @property
    def certified(self) -> bool:
        return self.report.passed

    @property
    def retries_used(self) -> int:
        return len(self.per_retry_reserves)


def explicit_construct(n: int, k: int) -> PointSet:
    """No-(k+1)-in-line set of size k*n for 2n/3 <= k <= n.

    Builds the complement: two (n-k)-square blocks hugging the two main
    diagonals plus a circulant (n-k)-factor on the rows and columns the
    squares leave empty; the returned set is the grid minus that
    complement and holds exactly k points in every row and column.
    """
    if not (0 <= k <= n):
        raise ConstructionError(f"k={k} outside [0, n={n}]")
    if 3 * k < 2 * n:
        raise ConstructionError(f"k={k} below 2n/3 (n={n}); the filler factor needs n-k <= 2k-n")
    s = n - k
    # complement[x-1, y-1]: cell (x, y) is left out
    complement = np.zeros((n, n), dtype=bool)
    # low square on the main diagonal, offset square on the antidiagonal
    complement[:s, :s] = True
    complement[s : 2 * s, 2 * k - n : k] = True
    # the circulant s-factor on the columns and rows the squares miss:
    # its cell (a, c) is (cols[a-1], rows[c-1])
    cols = np.arange(2 * s + 1, n + 1)
    rows = np.arange(s + 1, n + 1)
    rows = rows[(rows <= 2 * k - n) | (rows > k)]
    assert len(rows) == len(cols) == 2 * k - n
    complement[np.ix_(cols - 1, rows - 1)] |= _circulant(2 * k - n, s)
    out = PointSet(n, np.flatnonzero(~complement))
    assert len(out) == k * n
    return out


def explicit_certificate(n: int, k: int, seed: Optional[int] = None) -> ConstructionCertificate:
    """`explicit_construct(n, k)` with its verification report at reserve 0."""
    points = explicit_construct(n, k)
    return ConstructionCertificate(
        seed=seed,
        output=points,
        report=verify(points, k, 0),
        lineage=(("explicit", {"n": n, "k": k}),),
    )


def _sample_retry(matrix: FeasibilityMatrix, seed: int, t: int) -> PointSet:
    """Union of the per-block factors of retry t; block (i, j) gets an
    r_{i,j}-factor sampled with seed derived from (seed, t, i, j).

    The m blocks of a block-row are sampled in lockstep and audited
    together.  Laid side by side they form a q x n slab of grid rows, so
    the slab's flat nonzero indices, offset by the rows above it, are
    the row's keys already in file order.
    """
    m, q, n = matrix.m, matrix.block_side, matrix.n
    keys = []
    for i in range(1, m + 1):
        rs = np.array(matrix.entries[i - 1])[:, None]
        blocks = sample_blocks(q, rs, [derive_seed(seed, t, i, j) for j in range(1, m + 1)])
        if not (
            (np.count_nonzero(blocks, axis=2) == rs).all()
            and (np.count_nonzero(blocks, axis=1) == rs).all()
        ):
            raise RuntimeError(f"degree audit failed in block-row {i} of retry {t}")
        slab = blocks.transpose(1, 0, 2).reshape(q, n)
        keys.append(np.flatnonzero(slab) + (i - 1) * q * n)
    return PointSet(n, np.concatenate(keys))


def biuniform_construct(
    n: int,
    k: int,
    matrix: FeasibilityMatrix,
    seed: int,
    max_retries: int = 64,
    target_reserve: int = 0,
) -> ConstructionCertificate:
    """Union of independently sampled per-block factors, retried until a
    sample verifies at the target reserve.

    Block (i, j) of the m x m decomposition receives an r_{i,j}-factor
    sampled with seed derived from (seed, retry, i, j).  Row/column sums
    of the matrix equal to k make every sample an exact k-factor; only
    generic secants are random.  On exhaustion the best-effort sample
    and its report are returned with certified=False.
    """
    if matrix.n != n:
        raise ConstructionError(
            f"matrix is for n={matrix.n} (m={matrix.m} x side {matrix.block_side}), not n={n}"
        )
    if matrix.row_sums() != [k] * matrix.m or matrix.col_sums() != [k] * matrix.m:
        raise ConstructionError(f"matrix row/column sums must all equal k={k}")
    if max_retries < 1:
        raise ConstructionError("max_retries must be >= 1")
    best: Optional[tuple[PointSet, VerificationReport]] = None
    reserves = []
    for t in range(max_retries):
        sample = _sample_retry(matrix, seed, t)
        report = verify(sample, k, target_reserve)
        reserves.append(report.achieved_reserve)
        if report.passed or best is None or report.achieved_reserve > best[1].achieved_reserve:
            best = (sample, report)
        if report.passed:
            break
        # a retry that is not the best must not stay alive while the next is built
        del sample, report
    sample, report = best
    retry = t if report.passed else None
    return ConstructionCertificate(
        seed=seed,
        output=sample,
        report=report,
        lineage=(("biuniform", {"n": n, "k": k, "m": matrix.m, "seed": seed, "retry": retry}),),
        per_retry_reserves=tuple(reserves),
    )


def _spend(points: PointSet, k: int, drop: int, grow: int) -> PointSet:
    """Spend drop + grow 1-factors of a k-factor on [1,n]^2 in one step.

    After one degree audit, drop + grow perfect matchings are taken from
    one `iter_matchings` generator.  The first `drop` are erased; then
    the i-th of the next `grow` moves its k - drop cells (x, y) of
    smallest x to (n+i, y) and (x, n+i).  The result, a (k - drop)-factor
    of [1, n + grow]^2, is read off one side^2 bool grid in key order.
    Extraction depends only on the rows left, so this equals dropping
    first and growing the survivor after, byte for byte.
    """
    try:
        factor = BipartiteFactor(k, points)
    except ValueError as exc:
        raise ConstructionError(f"point set is not a {k}-factor per row/column: {exc}") from None
    n, k_new, side = points.n, k - drop, points.n + grow
    # ys[t, a-1] + 1 is the column of row a in the t-th matching
    ys = np.array(tuple(islice(iter_matchings(factor), drop + grow)), dtype=np.int64)
    ys = ys.reshape(drop + grow, n) - 1
    # old key (x-1)*n + (y-1) moves to (x-1)*side + (y-1)
    cells = np.zeros(side * side, dtype=bool)
    cells[points.keys + points.keys // n * grow] = True
    rows = np.arange(n) * side
    cells[rows + ys[:drop]] = False
    donors, donated = rows[:k_new], ys[drop:, :k_new]
    new = n + np.arange(grow)[:, None]
    cells[donors + donated] = False
    cells[new * side + donated] = True
    cells[donors + new] = True
    return PointSet(side, np.flatnonzero(cells))


def adjust_k(
    points: PointSet,
    k: int,
    k_new: int,
    reserve: int,
) -> tuple[PointSet, VerificationReport]:
    """Shrink a k-factor with verified reserve `reserve` to a
    k_new-factor by removing the first k - k_new extracted 1-factors
    (`_spend` with nothing grown); the survivor keeps reserve
    reserve - (k - k_new).

    Returns the new set together with its re-verification report (the
    report can only fail if the claimed input reserve was wrong).
    """
    drop = k - k_new
    if not 0 <= k_new <= k:
        raise ConstructionError(f"k_new={k_new} outside [0, k={k}]")
    if drop > reserve:
        raise ConstructionError(
            f"reserve {reserve} insufficient to drop {drop} factors"
        )
    out = _spend(points, k, drop, 0)
    return out, verify(out, k_new, reserve - drop)


def adjust_n(
    points: PointSet,
    report: VerificationReport,
    slack: int,
) -> tuple[PointSet, VerificationReport]:
    """Grow the grid by slack/2 rows and columns, spending an even
    generic-line slack (verified reserve) of the input k-factor
    (`_spend` with nothing dropped).  The result is a k-factor of
    [1, n + slack/2]^2.

    `report` is the passing verification report of `points`, and its k
    is the degree of the factor.  The report is trusted, not recomputed:
    its `axis_max` must be at most k and its `achieved_reserve` at least
    `slack`.  The degrees are still audited, and the output is verified
    at reserve 0; that report is the certificate, so a wrong input
    report can make the output fail, never pass unchecked.  With slack 0
    the set is unchanged and not swept again: the input report comes
    back re-targeted to reserve 0.
    """
    k = report.k
    if slack < 0 or slack % 2 != 0:
        raise ConstructionError(f"slack must be even and >= 0, got {slack}")
    if report.axis_max > k or report.achieved_reserve < slack:
        raise ConstructionError(
            f"input does not have reserve {slack}: {report.summary()}"
        )
    if k > points.n:
        raise ConstructionError("k may not exceed n")
    if slack == 0:
        return points, replace(report, required_reserve=0)
    out = _spend(points, k, 0, slack // 2)
    return out, verify(out, k, 0)


def pipeline(
    n: int,
    k: int,
    seed: int,
    strict: bool = False,
    max_retries: int = 64,
    C: float = 12.5,
) -> ConstructionCertificate:
    """End-to-end construction of a certified no-(k+1)-in-line set of
    size k*n on [1,n]^2.

    Large k (k >= 2n/3) routes to the explicit construction.  Otherwise
    n and k are rounded to multiples of 4 and 10, the bi-uniform
    construction runs at target reserve 15, and the reserve is spent in
    one step (`_spend`) shrinking k back and growing n back; the output
    is swept once at reserve 0.  strict additionally enforces
    n >= 68 and C*sqrt(n ln n) <= k (the checkable hypotheses of the
    regime where success is guaranteed asymptotically).
    """
    if not (1 <= k <= n):
        raise ConstructionError(f"need 1 <= k <= n, got k={k}, n={n}")
    if strict:
        if n < 68:
            raise ConstructionError(f"strict mode needs n >= 68, got {n}")
        bound = C * sqrt(n * log(n))
        if k < bound:
            raise ConstructionError(
                f"strict mode needs k >= C*sqrt(n ln n) = {bound:.1f}, got {k}"
            )

    if 3 * k >= 2 * n:
        cert = explicit_certificate(n, k, seed)
        assert cert.certified, cert.report.summary()
        return cert

    n_round = 4 * (n // 4)
    k_round = 10 * ceil(k / 10)
    if n_round < 4 or k_round < 10:
        raise ConstructionError(f"n'={n} / k'={k} too small for the randomized route")
    if 6 * k_round > 5 * n_round:
        raise ConstructionError(
            f"rounded k={k_round} exceeds 5/6 of rounded n={n_round}"
            + (" (strict chain broken)" if strict else "")
        )
    if strict and n_round < 66:
        raise ConstructionError(f"rounded n={n_round} below 66; 5n/6 chain not guaranteed")

    target_h = 15
    matrix = feasibility_matrix_4x4(n_round, k_round)
    cert = biuniform_construct(
        n_round, k_round, matrix, seed, max_retries=max_retries, target_reserve=target_h
    )
    if not cert.certified:
        raise RetriesExhausted(cert)

    drop, grow = k_round - k, n - n_round
    h_left = target_h - drop
    assert 2 * grow <= h_left  # drop <= 9 and grow <= 3
    lineage = cert.lineage + (
        ("adjust-k", {"from": k_round, "to": k, "reserve_left": h_left}),
        ("adjust-n", {"from": n_round, "to": n, "slack": 2 * grow}),
    )
    if drop or grow:
        points = _spend(cert.output, k_round, drop, grow)
        report = verify(points, k, 0)
    else:
        # nothing spent: the retry's sweep answers for the set at reserve 0
        points, report = cert.output, replace(cert.report, required_reserve=0)
    if not report.passed:
        raise ConstructionError(f"reserve chain broken: {report.summary()}")
    assert points.n == n and len(points) == k * n
    return replace(cert, output=points, report=report, lineage=lineage)
