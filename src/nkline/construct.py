"""Point-set constructions: the explicit large-k complement, the
bi-uniform randomized construction, the step that spends verified
reserve to shrink k and grow n, and the end-to-end pipeline.

Every construction output is certified by the sweep verifier rather
than trusted; randomized steps are reproducible from a master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from math import ceil, inf, log, sqrt
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
    first and growing the survivor after, byte for byte.  The reserve
    is not checked here; `spend` checks it.
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


def spend(
    points: PointSet,
    report: VerificationReport,
    k: int,
    n: int,
) -> tuple[PointSet, VerificationReport]:
    """Spend the verified reserve of a `report.k`-factor on
    [1, points.n]^2 to make a k-factor on [1,n]^2: drop report.k - k
    1-factors and grow n - points.n rows and columns (`_spend`).  Each
    dropped factor costs 1 of reserve, each new row and column 2.

    `report` is the passing verification report of `points`, trusted,
    not recomputed: its `axis_max` must be at most its k and its
    `achieved_reserve` at least the reserve spent.  The degrees are
    still audited, and the output is verified at reserve 0; that report
    is the certificate, so a wrong input report can make the output
    fail, never pass unchecked.  When nothing is spent the set is
    returned unchanged and not swept again: the input report comes back
    re-targeted to reserve 0.
    """
    drop, grow = report.k - k, n - points.n
    if drop < 0 or grow < 0:
        raise ConstructionError(
            f"spending reserve cannot raise k ({report.k} -> {k}) or shrink n ({points.n} -> {n})"
        )
    if report.axis_max > report.k or report.achieved_reserve < drop + 2 * grow:
        raise ConstructionError(
            f"input does not have reserve {drop + 2 * grow}: {report.summary()}"
        )
    if not drop and not grow:
        return points, replace(report, required_reserve=0)
    out = _spend(points, report.k, drop, grow)
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
    construction runs at target reserve 15, and one `spend` shrinks k
    back and grows n back; its output is swept once at reserve 0.
    strict additionally enforces n >= 68 and C*sqrt(n ln n) <= k (the
    checkable hypotheses of the regime where success is guaranteed
    asymptotically).
    """
    if not (1 <= k <= n):
        raise ConstructionError(f"need 1 <= k <= n, got k={k}, n={n}")
    if strict:
        if n < 68:
            raise ConstructionError(f"strict mode needs n >= 68, got {n}")
        if not 0 < C < inf:
            raise ConstructionError(f"C must be positive and finite, got {C}")
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

    matrix = feasibility_matrix_4x4(n_round, k_round)
    cert = biuniform_construct(
        n_round, k_round, matrix, seed, max_retries=max_retries, target_reserve=15
    )
    if not cert.certified:
        raise RetriesExhausted(cert)

    # reserve 15 covers the most spent: drop <= 9 plus 2 * grow <= 6
    points, report = spend(cert.output, cert.report, k, n)
    if not report.passed:
        raise ConstructionError(f"reserve chain broken: {report.summary()}")
    assert points.n == n and len(points) == k * n
    lineage = cert.lineage + (("spend", {"from": (n_round, k_round), "to": (n, k)}),)
    return replace(cert, output=points, report=report, lineage=lineage)
