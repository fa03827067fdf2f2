"""Shared fixtures.

The desk-scale randomized run (seed 7, n=400, k=240, target reserve 15,
on the 400/240 matrix that pipeline(403, 233) samples from; the pipeline
itself samples at its own seed and sweeps only the spent set, at
reserve 0) is the input of the tests of construct.spend and of
acceptance criteria 8-10, so it is built once per test session.
"""

import time

import pytest

from nkline.construct import biuniform_construct
from nkline.grid import feasibility_matrix_4x4

ACCEPTANCE_SEED = 7
DESK_N, DESK_K, DESK_RESERVE = 400, 240, 15


def desk_scale_construct():
    matrix = feasibility_matrix_4x4(DESK_N, DESK_K)
    return biuniform_construct(
        DESK_N,
        DESK_K,
        matrix,
        seed=ACCEPTANCE_SEED,
        max_retries=64,
        target_reserve=DESK_RESERVE,
    )


@pytest.fixture(scope="session")
def desk_scale_run():
    """(certificate, wall seconds) of the desk-scale run."""
    t0 = time.perf_counter()
    cert = desk_scale_construct()
    elapsed = time.perf_counter() - t0
    return cert, elapsed
