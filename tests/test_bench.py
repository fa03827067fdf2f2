"""The committed benchmark records: each `BENCH_<workload>.json` at the
repository root is one `perfbench/run.py --trace 0` results file, kept
unedited, for a workload that BENCHMARK.json declares."""

import json
import math
import re
from pathlib import Path

import pytest

from test_cli import CONSTRUCT_403_233_SEED_11_SHA256
from test_construct import SEARCH_400_120_SHA256

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_each_declared_workload_has_a_record():
    names = {w["name"] for w in DECLARED["workloads"]}
    assert {p.name for p in RECORDS} == {f"BENCH_{name}.json" for name in names}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.stem)
def test_record_names_its_workload_seed_sha_and_metrics(path):
    record = json.loads(path.read_text())
    assert path.name == f"BENCH_{record['workload']}.json"
    assert record["trace"] == 0 and record["failed"] == 0 and record["attempted"] > 0
    assert isinstance(record["seed"], int)
    assert re.fullmatch(r"[0-9a-f]{40}", record["git_sha"])
    for metric in DECLARED["end_to_end"]:
        got = record["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0


@pytest.mark.parametrize(
    "workload, seed, sha256",
    [("construct-403-233", 11, CONSTRUCT_403_233_SEED_11_SHA256),
     ("search-400-120", 7, SEARCH_400_120_SHA256)],
)
def test_record_wrote_the_pinned_output(workload, seed, sha256):
    # every op of a run does identical work, so a record holds one digest
    record = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert record["seed"] == seed and record["sha256"] == [sha256]
