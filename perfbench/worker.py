"""One benchmark child process: set up, run ops in a closed loop, check them.

Started by run.py, one child at a time, each in a fresh single-threaded
interpreter.  Only the standard library is imported before the set-up
clock starts, so `setup_s` covers importing nkline (and numpy through
it) plus one untimed warm-up op, which fills the program's lazy caches
such as the direction list of the verifier.

Every timed op sits between two runs of `reference.probe`, a fixed piece
of the benchmark's own work; their mean time gives the machine's speed at
that moment, and run.py reports op time in units of it.  Two more probes
right after set-up give the speed for `setup_s`.

Modes:
  measure  set up, then run ops until --seconds have passed
  setup    set up and stop (further set-up samples)
  trace    set up traced, then alternate untraced and traced ops
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent

# parameters of each workload; run.py imports this table
WORKLOADS = {
    "construct-403-233": {"n": 403, "k": 233, "default_seed": 11},
    "search-400-120": {"n": 400, "k": 120, "default_seed": 7, "max_retries": 4, "target_reserve": 15},
    "audit-200-60": {"n": 200, "k": 60, "default_seed": 1, "delta": "4/5"},
}


class Workload:
    """One workload: `op()` is the timed call, `check()` audits its outcome
    untimed and returns either {"error"} or {"sha256", "worst_load", "units"}."""

    def close(self):
        pass


class Construct(Workload):
    """`nkline construct --mode auto` through cli.main, output to a file."""

    def __init__(self, nk, params, seed, work, inputs):
        self.nk, self.p, self.seed = nk, params, seed
        self.out = work / f"construct-{os.getpid()}.txt"

    def op(self):
        p = self.p
        argv = ["construct", "--n", str(p["n"]), "--k", str(p["k"]), "--mode", "auto",
                "--seed", str(self.seed), "--out", str(self.out)]
        return self.nk.cli.main(argv)

    def check(self, code, ref):
        n, k = self.p["n"], self.p["k"]
        if code != 0:
            return {"error": f"exit code {code}"}
        sidecar = self.out.with_name(self.out.name + ".report.txt").read_text()
        if "status: certified" not in sidecar.splitlines()[0]:
            return {"error": f"sidecar not certified: {sidecar.splitlines()[0]!r}"}
        text = self.out.read_text()
        file_n, xs, ys = ref.read_point_file(text)
        if file_n != n:
            return {"error": f"file is for n={file_n}"}
        error = ref.regularity_error(xs, ys, n, k)
        if error:
            return {"error": error}
        # lines of modulus > (n-1)//k hold at most k grid points, so this sweep is complete
        worst = ref.generic_max(xs, ys, n, max_modulus=(n - 1) // k)
        if worst > k:
            return {"error": f"a generic line holds {worst} > k={k} points"}
        return {"sha256": ref.sha256(text), "worst_load": worst / k, "units": 1}

    def close(self):
        for path in (self.out, self.out.with_name(self.out.name + ".report.txt")):
            path.unlink(missing_ok=True)


class Search(Workload):
    """`biuniform_construct` at the acceptance parameters, cut to R retries."""

    def __init__(self, nk, params, seed, work, inputs):
        self.nk, self.p, self.seed = nk, params, seed

    def op(self):
        p, nk = self.p, self.nk
        matrix = nk.grid.feasibility_matrix_4x4(p["n"], p["k"])
        return nk.construct.biuniform_construct(
            p["n"], p["k"], matrix, seed=self.seed,
            max_retries=p["max_retries"], target_reserve=p["target_reserve"],
        )

    def check(self, cert, ref):
        n, k = self.p["n"], self.p["k"]
        text = self.nk.pointfile.serialize(cert.output, k, seed=self.seed)
        _, xs, ys = ref.read_point_file(text)
        error = ref.regularity_error(xs, ys, n, k)
        if error:
            return {"error": error}
        reserves = list(cert.per_retry_reserves)
        if len(reserves) != cert.retries_used:
            return {"error": f"{len(reserves)} reserves for {cert.retries_used} retries"}
        if not cert.certified and cert.retries_used != self.p["max_retries"]:
            return {"error": f"stopped uncertified after {cert.retries_used} retries"}
        report = cert.report
        d, c = report.worst_line
        recount = ref.count_on_line(xs, ys, d.vx, d.vy, c)
        if recount != report.generic_max:
            return {"error": f"worst line holds {recount} points, report says {report.generic_max}"}
        worst = statistics.fmean((k - r) / k for r in reserves)
        return {"sha256": ref.sha256(text), "worst_load": worst, "units": cert.retries_used}


class Audit(Workload):
    """Parse a given point file, verify it exactly, and check the matrix."""

    def __init__(self, nk, params, seed, work, inputs):
        self.nk, self.p = nk, params
        self.text = inputs["text"]
        self.reference = inputs["generic_max"]
        verify = nk.secants.verify
        # exact sweep; `mode` is passed only while verify still has it
        self.verify_kwargs = (
            {"mode": "exhaustive"} if "mode" in inspect.signature(verify).parameters else {}
        )

    def op(self):
        p, nk = self.p, self.nk
        parsed = nk.pointfile.parse(self.text)
        report = nk.secants.verify(parsed.points, p["k"], **self.verify_kwargs)
        feasible = nk.grid.is_feasible(nk.grid.feasibility_matrix_4x4(p["n"], p["k"]), p["k"], p["delta"])
        return parsed, report, feasible

    def check(self, outcome, ref):
        parsed, report, feasible = outcome
        n, k = self.p["n"], self.p["k"]
        echo = self.nk.pointfile.serialize(parsed.points, parsed.k, parsed.reserve, parsed.seed)
        if echo != self.text:
            return {"error": "parsed points do not round-trip to the input file"}
        _, xs, ys = ref.read_point_file(echo)
        error = ref.regularity_error(xs, ys, n, k)
        if error:
            return {"error": error}
        if report.axis_max != k:
            return {"error": f"axis_max {report.axis_max}, want {k}"}
        if report.generic_max != self.reference:
            return {"error": f"generic_max {report.generic_max}, reference {self.reference}"}
        d, c = report.worst_line
        recount = ref.count_on_line(xs, ys, d.vx, d.vy, c)
        if recount != self.reference:
            return {"error": f"worst line holds {recount} points, reference {self.reference}"}
        if not feasible.ok:
            return {"error": f"is_feasible rejected the 4x4 matrix: {feasible.witness}"}
        return {"sha256": ref.sha256(echo), "worst_load": report.generic_max / k, "units": 1}


CLASSES = {"construct-403-233": Construct, "search-400-120": Search, "audit-200-60": Audit}

# span name -> per-layer self-time metric
SELF_METRIC = {
    "cli.main": "cli.construct_self_s",
    "construct.pipeline": "construct.pipeline_self_s",
    "construct.biuniform_construct": "construct.biuniform_self_s",
    "construct.adjust_k": "construct.adjust_k_self_s",
    "construct.adjust_n": "construct.adjust_n_self_s",
    "bifactor.sample_r_factor": "bifactor.sample_s",
    "bifactor.one_factorize": "bifactor.factorize_s",
    "bifactor.extract_matching": "bifactor.factorize_s",
    "secants.verify": "secants.verify_s",
    "secants.primitive_directions": "secants.verify_s",
    "grid.PointSet": "grid.pointset_s",
    "grid.max_expected_load": "grid.max_expected_load_s",
    "pointfile.serialize": "pointfile.serialize_s",
    "pointfile.parse": "pointfile.parse_s",
}
# per-layer count -> (span name, attribute or None to count calls)
COUNTS = {
    "bifactor.factorize_calls": [("bifactor.one_factorize", None)],
    "bifactor.matchings_extracted": [("bifactor.extract_matching", None)],
    "bifactor.matchings_used": [("construct.adjust_k", "used"), ("construct.adjust_n", "used")],
    "bifactor.sample_calls": [("bifactor.sample_r_factor", None)],
    "bifactor.sample_cells": [("bifactor.sample_r_factor", "cells")],
    "secants.verify_calls": [("secants.verify", None)],
    "secants.verify_points": [("secants.verify", "points")],
    "secants.directions_swept": [("secants.verify", "directions")],
    "grid.pointset_points": [("grid.PointSet", "points")],
    "construct.retries": [("construct.biuniform_construct", "retries")],
    "construct.certified": [("construct.biuniform_construct", "certified")],
    "pointfile.bytes": [("pointfile.serialize", "bytes"), ("pointfile.parse", "bytes")],
}


def layer_metrics(spans, op_ids):
    """Median over the traced ops of each per-layer time and count."""
    keys = [*set(SELF_METRIC.values()), *COUNTS, "trace.self_sum_s"]
    per_op = {op: dict.fromkeys(keys, 0) for op in op_ids}
    for span, own in zip(spans, self_times(spans)):
        name, op, attrs = span[0], span[4], span[5] or {}
        row = per_op.get(op)
        if row is None:
            continue
        if name in SELF_METRIC:
            row[SELF_METRIC[name]] += own
        row["trace.self_sum_s"] += own
        for metric, sources in COUNTS.items():
            for source, attr in sources:
                if source == name:
                    row[metric] += 1 if attr is None else attrs.get(attr, 0)
    for row in per_op.values():
        extracted, retries = row["bifactor.matchings_extracted"], row["construct.retries"]
        row["bifactor.matching_use_ratio"] = row["bifactor.matchings_used"] / extracted if extracted else 0.0
        certified = row.pop("construct.certified")
        row["construct.retry_pass_ratio"] = certified / retries if retries else 0.0
    rows = list(per_op.values())
    return {key: statistics.median(row[key] for row in rows) for key in sorted(rows[0])}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["measure", "setup", "trace"], required=True)
    ap.add_argument("--inputs", help="JSON file with the workload's pre-made inputs")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    params = WORKLOADS[args.workload]
    work = Path(args.result).parent
    inputs = json.loads(Path(args.inputs).read_text()) if args.inputs else {}
    sys.path.insert(0, str(ROOT / "src"))
    result = {"mode": args.mode, "ops": [], "warmup": None}

    t0 = time.perf_counter()
    import nkline
    import nkline.cli

    tracer = Tracer() if args.mode == "trace" else None
    workload = CLASSES[args.workload](nkline, params, args.seed, work, inputs)
    if tracer:
        tracer.op = "setup"
        tracer.install()
    warmup_outcome, warmup_error = _run(workload.op)
    if tracer:
        tracer.uninstall()
    result["setup_s"] = time.perf_counter() - t0

    import reference

    result["setup_probe_s"] = statistics.fmean(_timed(reference.probe) for _ in range(2))
    result["warmup"] = _checked(workload, warmup_outcome, warmup_error, reference)
    if args.mode != "setup":
        start = time.perf_counter()
        traced_next = False
        probe_before = _timed(reference.probe)
        while True:
            if tracer and traced_next:
                tracer.op = f"op{len(result['ops'])}"
                tracer.install()
            t = time.perf_counter()
            outcome, error = _run(workload.op)
            seconds = time.perf_counter() - t
            if tracer:
                tracer.uninstall()
            probe_after = _timed(reference.probe)
            row = _checked(workload, outcome, error, reference)
            row.update(seconds=seconds, probe_s=(probe_before + probe_after) / 2, traced=traced_next)
            probe_before = probe_after
            result["ops"].append(row)
            traced_next = tracer is not None and not traced_next
            kinds = {r["traced"] for r in result["ops"]}
            if time.perf_counter() - start >= args.seconds and (not tracer or len(kinds) == 2):
                break
    workload.close()
    result["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        traced = [f"op{i}" for i, r in enumerate(result["ops"]) if r["traced"]]
        layers = layer_metrics(tracer.spans, traced)
        setup_spans = [s for s in tracer.spans if s[4] == "setup" and s[0] == "secants.primitive_directions"]
        layers["secants.direction_enum_s"] = sum(s[2] - s[1] for s in setup_spans)
        result["layers"] = layers
        result["missing_targets"] = sorted(tracer.missing)
        tracer.dump(work / f"{args.workload}-seed{args.seed}-spans.json")
    Path(args.result).write_text(json.dumps(result))
    return 0


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def _run(op):
    try:
        return op(), None
    except Exception:  # an op that raises is a failed op, not a crashed run
        return None, traceback.format_exc(limit=4)


def _checked(workload, outcome, error, ref):
    if error is None:
        try:
            return workload.check(outcome, ref)
        except Exception:  # a malformed outcome fails the op
            error = traceback.format_exc(limit=4)
    return {"error": error}


if __name__ == "__main__":
    sys.exit(main())
