"""Point-set constructions: the explicit large-k complement, the
bi-uniform randomized construction, the step that spends verified
reserve to shrink k and grow n, and the end-to-end pipeline.

Every construction output is certified by the sweep verifier rather
than trusted; randomized steps are reproducible from a master seed.
An output reaches the sweep as its n x n bool cells (`_certify`), and
its keys are read once: for the set that is returned, or by a sparse
set's sweep, which needs them.  A dense retry that is not kept has no
key read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional, Union

import numpy as np

from .bifactor import (
    _circulant,
    _hopcroft_karp,
    derive_seed,
    iter_matchings,
    relabeled_circulants,
)
from .grid import FeasibilityMatrix, PointSet, _ceil_div, _check_int, feasibility_matrix_4x4
from .secants import VerificationReport, _verify_cells


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
    out = PointSet.from_mask(_explicit_cells(n, k))
    assert len(out) == k * n
    return out


def _explicit_cells(n: int, k: int) -> np.ndarray:
    """The n x n bool mask of `explicit_construct(n, k)`, [x-1, y-1] for
    the point (x, y)."""
    _check_int(n=n, k=k)
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
    return ~complement


def explicit_certificate(n: int, k: int, seed: Optional[int] = None) -> ConstructionCertificate:
    """`explicit_construct(n, k)` with its verification report at reserve 0.
    The construction is deterministic and proven, so a report that does
    not pass is a program fault and raises RuntimeError."""
    if seed is not None:
        _check_int(seed=seed)
    report, held = _certify([_explicit_cells(n, k)], k, 0)
    if not report.passed:
        raise RuntimeError(f"explicit construction not certified: {report.summary()}")
    return ConstructionCertificate(
        seed=seed,
        output=_read_keys(held),
        report=report,
        lineage=(("explicit", {"n": n, "k": k}),),
    )


# a certified output as `_certify` keeps it: its n x n bool cells, or the
# PointSet the sweep read them into
_Held = Union[np.ndarray, PointSet]


def _certify(slot: list[np.ndarray], k: int, reserve: int) -> tuple[VerificationReport, _Held]:
    """The one sweep of a construction's output, given as its n x n bool
    cells alone in the list `slot` (`secants._verify_cells` at
    (k, reserve), which takes them out), and the output as the sweep
    left it: the cells, or the PointSet it read them into.
    The output must also hold k * n points with no row or column above
    k, so exactly k in each.  The constructions make such sets by
    design, so any other is a program fault and raises RuntimeError."""
    n = len(slot[0])
    report, held = _verify_cells(slot, k, reserve)
    size = len(held) if isinstance(held, PointSet) else np.count_nonzero(held)
    if size != k * n or report.axis_max > k:
        raise RuntimeError(
            f"construction output is not a {k}-factor on [1,{n}]^2: "
            f"{size} points, axis_max={report.axis_max}"
        )
    return report, held


def _read_keys(held: _Held) -> PointSet:
    """The PointSet of an output `_certify` kept, its cells read once."""
    return PointSet.from_mask(held) if isinstance(held, np.ndarray) else held


def _sample_retry(
    matrix: FeasibilityMatrix, seed: int, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Retry t: the n x n bool mask of the union of the per-block
    factors, and the relabelings sigma, tau that it was built from.

    Block (i, j) gets an r_{i,j}-factor, a relabeled circulant, with
    seed derived from (seed, t, i, j), blocks in row-major order: not
    the paper's uniform r-factor, but with the reserve law of
    Curveball's in the table of CHANGES.md (Curveball remains for the
    uniform law).

    One `relabeled_circulants` call builds all m^2 blocks and returns
    the relabelings with them; the blocks are laid out as the n x n
    mask, [x-1, y-1] for cell (x, y), and `_certify` counts the retry's
    output.  The same sigma, tau give its 1-factors (`_retry_factors`).
    """
    m, q, n = matrix.m, matrix.block_side, matrix.n
    seeds = [derive_seed(seed, t, i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    blocks, sigma, tau = relabeled_circulants(q, matrix.entries, seeds)
    cells = blocks.reshape(m, m, q, q).transpose(0, 2, 1, 3).reshape(n, n)
    return cells, sigma, tau


def _block_schedule(matrix: FeasibilityMatrix, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The block steps of the first `count` 1-factors of every retry
    that `_sample_retry` builds on `matrix`, as two (count, m) arrays
    (pi, c): at step s, block-row i takes block column pi[s, i] and
    that block's shift class c[s, i].  The row sums and column sums of
    the matrix must all be equal, to k; then there are k steps.

    Step s takes a perfect matching pi of the support of the block
    entries not yet used, by `_hopcroft_karp` on m bits (one exists, by
    König, as every line of what is left sums to k - s), and each block
    (i, pi(i)) gives its lowest unused shift class.  The walk reads the
    matrix alone, so one schedule serves every retry on it; the first
    steps never depend on how many follow.
    """
    m = matrix.m
    left = [list(row) for row in matrix.entries]
    pi = np.empty((count, m), dtype=np.intp)
    c = np.empty((count, m), dtype=np.intp)
    for s in range(count):
        step, _ = _hopcroft_karp(m, [sum(1 << j for j, v in enumerate(row) if v) for row in left])
        if -1 in step:
            raise ConstructionError("block matrix has unequal line sums; no 1-factor left")
        for i, j in enumerate(step):
            # the shift classes below c are spent already
            c[s, i] = matrix.entries[i][j] - left[i][j]
            left[i][j] -= 1
        pi[s] = step
    return pi, c


def _retry_factors(
    schedule: tuple[np.ndarray, np.ndarray], sigma: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """The 1-factors of a retry that `_sample_retry` built, one per step
    of its matrix's `_block_schedule`, read off the relabelings sigma,
    tau that `relabeled_circulants` returned for it, with no matching
    run on its n x n cells, as one (count, n) array: row f of it maps
    row x to column f[x-1], 1-based.  The factors are disjoint, and the
    first k of them make up the retry.

    Block (i, j), row b = (i-1)*m + (j-1) of sigma and tau, is a
    relabeled circulant, so each of its r_{i,j} shift classes is a
    perfect matching of the block (`relabeled_circulants`).  At the
    step (pi, c), row a of block-row i goes to column
    pi(i)*q + tau^-1[(sigma[a] + c(i)) mod q] (0-based): one gather
    through tau^-1 for all steps.
    """
    pi, c = schedule
    (count, m), q = pi.shape, sigma.shape[1]
    b = np.arange(m) * m + pi
    cols = np.argsort(tau, axis=1)[b[..., None], (sigma[b] + c[..., None]) % q]
    cols += (pi * q + 1)[..., None]
    return cols.reshape(count, m * q)


def biuniform_construct(
    n: int,
    k: int,
    matrix: FeasibilityMatrix,
    seed: int,
    max_retries: int = 64,
    target_reserve: int = 0,
) -> ConstructionCertificate:
    """A k-factor on [1,n]^2 from independently sampled per-block
    factors, retried until one verifies at the target reserve.

    The matrix lies on a grid n' = matrix.n <= n, and its row and column
    sums all equal one k' >= k.  Retry t samples a k'-factor on
    [1,n']^2 (`_sample_retry`): block (i, j) of the m x m decomposition
    receives an r_{i,j}-factor with seed derived from (seed, t, i, j), a
    relabeled circulant with Curveball's reserve law, not the paper's
    uniform r-factor.  Each retry is spent
    (`_spend`): k' - k of its own shift-class 1-factors are dropped and
    the next n - n' each grow one row and column, which needs
    (k' - k) + (n - n') <= k'; the block steps of those factors are the
    same on every retry, so they are walked once (`_block_schedule`).
    The spent cells, or with nothing to spend the retry's own, are then
    certified once (`_certify`), at (k, target_reserve); only generic
    secants are random, and that exact report is the certificate.  The
    best retry so far is kept as its cells (or as the keys its sweep
    read), and its keys are read when the loop ends.  On exhaustion the
    best-effort set (at n and k too) and its report are returned with
    certified=False.
    """
    _check_int(n=n, k=k, seed=seed, max_retries=max_retries, target_reserve=target_reserve)
    n_sample, k_sample = matrix.n, matrix.row_sums()[0]
    if matrix.row_sums() != [k_sample] * matrix.m or matrix.col_sums() != [k_sample] * matrix.m:
        raise ConstructionError(f"matrix row/column sums are not all equal: {matrix.entries}")
    drop, grow = k_sample - k, n - n_sample
    if min(drop, grow) < 0 or drop + grow > k_sample:
        raise ConstructionError(
            f"a {k_sample}-factor on [1,{n_sample}]^2 cannot be spent to k={k} on [1,{n}]^2: "
            f"it would drop {drop} and grow {grow} of its {k_sample} 1-factors"
        )
    if max_retries < 1:
        raise ConstructionError("max_retries must be >= 1")
    if target_reserve < 0:
        raise ConstructionError(f"target_reserve must be >= 0, got {target_reserve}")
    schedule = _block_schedule(matrix, drop + grow) if drop or grow else None
    best: Optional[tuple[_Held, VerificationReport]] = None
    reserves = []
    for t in range(max_retries):
        cells, sigma, tau = _sample_retry(matrix, seed, t)
        if drop or grow:
            # the retry's own cells must not stay alive through the sweep
            cells = _spend(cells, k_sample, drop, grow, _retry_factors(schedule, sigma, tau))
        # the sweep takes the only reference to the cells, so that a
        # retry it reads keys from holds those keys alone through it
        slot = [cells]
        del cells, sigma, tau
        report, held = _certify(slot, k, target_reserve)
        reserves.append(report.achieved_reserve)
        if best is None or report.achieved_reserve > best[1].achieved_reserve:
            best = (held, report)
        if report.passed:
            break
        # a retry that is not the best must not stay alive while the next is built
        del held, report
    held, report = best
    lineage = (("biuniform", {"n": n_sample, "k": k_sample, "m": matrix.m, "seed": seed,
                              "retry": t if report.passed else None}),)
    if drop or grow:
        lineage += (("spend", {"from": (n_sample, k_sample), "to": (n, k)}),)
    return ConstructionCertificate(seed, _read_keys(held), report, lineage, tuple(reserves))


def _spend(cells: np.ndarray, k: int, drop: int, grow: int, factors: np.ndarray) -> np.ndarray:
    """Spend drop + grow 1-factors of a k-factor on [1,n]^2, given as its
    n x n bool cells (`PointSet.mask`), in one step, and return the
    cells of the result.

    `factors` is the (drop + grow, n) integer array of the 1-factors to
    spend, row f mapping row x to column f[x-1] (1-based):
    `_retry_factors` for a bi-uniform retry, or the first drop + grow of
    `iter_matchings(points)` stacked, for any k-factor.  Only their shape
    is checked, for the indexing; the caller certifies the result
    (`_certify`).  The mask is copied once into an (n + grow)^2 mask,
    where the first `drop` are erased; then the i-th of the next `grow`
    moves its k - drop cells (x, y) of smallest x to
    (n+i, y) and (x, n+i).  That mask is the result, a (k - drop)-factor
    of [1, n + grow]^2; the sweep reads it as it is (`_certify`), and no
    key is read off it here.  The reserve is not checked here; `spend`
    checks it.
    """
    n, k_new = len(cells), k - drop
    factors = np.asarray(factors, dtype=np.int64)
    if factors.shape != (drop + grow, n):
        raise ConstructionError(f"{drop + grow} 1-factors on {n} rows needed, got {factors.shape}")
    # ys[t, a-1] is the 0-based column of row a in the t-th factor
    ys, rows = factors - 1, np.arange(n)
    out = np.zeros((n + grow, n + grow), dtype=bool)
    out[:n, :n] = cells
    out[rows, ys[:drop]] = False
    donors, donated = rows[:k_new], ys[drop:, :k_new]
    new = n + np.arange(grow)[:, None]
    out[donors, donated] = False
    out[new, donated] = True
    out[donors, new] = True
    return out


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

    The 1-factors are the first drop + grow of `iter_matchings(points)`,
    extracted once the checks below pass.  (`biuniform_construct` spends
    each retry with its own shift classes, so it has no report to pass
    here.)

    k and n must be integers.  `report` is the passing verification
    report of `points`, trusted, not recomputed: its `axis_max` must be
    at most its k and its `achieved_reserve` at least the reserve spent.
    With len(points) = report.k * points.n that makes every row and
    column hold exactly report.k points.  The output is certified at
    reserve 0 (`_certify`); that report is the certificate, so a wrong
    input report can make the output fail, never pass unchecked.  When
    nothing is spent the set is returned unchanged and not swept again,
    and no factor is extracted: the input report comes back re-targeted
    to reserve 0.
    """
    _check_int(k=k, n=n)
    drop, grow = report.k - k, n - points.n
    if drop < 0 or grow < 0:
        raise ConstructionError(
            f"spending reserve cannot raise k ({report.k} -> {k}) or shrink n ({points.n} -> {n})"
        )
    if report.axis_max > report.k or report.achieved_reserve < drop + 2 * grow:
        raise ConstructionError(
            f"input does not have reserve {drop + 2 * grow}: {report.summary()}"
        )
    if len(points) != report.k * points.n:
        raise ConstructionError(
            f"point set is not a {report.k}-factor per row/column: "
            f"{len(points)} points on [1,{points.n}]^2"
        )
    if not drop and not grow:
        return points, replace(report, required_reserve=0)
    factors = np.array(list(islice(iter_matchings(points), drop + grow)))
    report, held = _certify([_spend(points.mask(), report.k, drop, grow, factors)], k, 0)
    return _read_keys(held), report


def pipeline(n: int, k: int, seed: int, max_retries: int = 64) -> ConstructionCertificate:
    """End-to-end construction of a certified no-(k+1)-in-line set of
    size k*n on [1,n]^2.

    Large k (k >= 2n/3) routes to the explicit construction.  Otherwise
    n and k are rounded down to n' and up to k', multiples of 4 and 10,
    and `biuniform_construct(n, k, feasibility_matrix_4x4(n', k'), ...)`
    samples each retry at (n', k'), spends it back to (n, k) with its own
    shift-class 1-factors (no matching runs on the n' x n' set), and
    certifies the spent set once at reserve 0.  Its retries are
    relabeled circulants (`_sample_retry`); the exact verification
    report is the certificate.  RetriesExhausted carries the best spent
    set.
    """
    _check_int(n=n, k=k, seed=seed, max_retries=max_retries)
    if not (1 <= k <= n):
        raise ConstructionError(f"need 1 <= k <= n, got k={k}, n={n}")

    if 3 * k >= 2 * n:
        return explicit_certificate(n, k, seed)

    n_round = 4 * (n // 4)
    k_round = 10 * _ceil_div(k, 10)
    if 6 * k_round > 5 * n_round:
        raise ConstructionError(
            f"no route builds n={n}, k={k}: the explicit construction needs 3k >= 2n, "
            f"and the randomized one 10*ceil(k/10) = {k_round} <= 5/6 of 4*floor(n/4) = {n_round}"
        )
    matrix = feasibility_matrix_4x4(n_round, k_round)
    cert = biuniform_construct(n, k, matrix, seed, max_retries=max_retries)
    if not cert.certified:
        raise RetriesExhausted(cert)
    return cert
