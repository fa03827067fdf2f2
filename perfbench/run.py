"""nkline benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload construct-403-233 --seed 11 --seconds 15 --trace 0

Runs from the root of a source checkout and imports nkline from `src/`.
Each workload runs as a closed loop with one client: fresh single-threaded
child processes (perfbench/worker.py), one after another, never in
parallel.  With --trace 0 the first child sets up and then runs ops for
--seconds; two more children only set up, so `setup_s` is a median of
three.  Each op's time is divided by the time of a fixed probe run beside
it (`op_cost`), and each set-up time is scaled to the machine speed at
which the probe takes PROBE_REF_S seconds (`setup_s`).  With --trace 1 one child alternates untraced and traced ops and
reports per-layer metrics.  Every op is checked; the last line of stdout
is the JSON result, and every per-op sample goes to
perfbench/results/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
# the probe's time at the reference machine speed that `setup_s` is scaled to
PROBE_REF_S = 0.15
DEADLINE_S = 170.0
# unit of each metric printed in the result
UNITS = {"op_cost": "probe", "worst_load": "ratio", "setup_s": "s", "peak_mb": "MB"}
# the per-op wall time of each workload under the name its readers use
OP_ALIAS = {"construct-403-233": "construct_s", "search-400-120": "retry_s", "audit-200-60": "audit_s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "overhead")):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_inputs(workload: str, seed: int, work: Path) -> Path | None:
    """Untimed: the audit file and its reference, from the benchmark's own code."""
    if workload != "audit-200-60":
        return None
    import reference

    p = WORKLOADS[workload]
    xs, ys = reference.permuted_circulant_set(p["n"], p["k"], seed)
    text = reference.write_point_file(p["n"], p["k"], seed, xs, ys)
    inputs = {"text": text, "generic_max": reference.generic_max(xs, ys, p["n"])}
    path = work / f"{workload}-seed{seed}-inputs.json"
    path.write_text(json.dumps(inputs))
    return path


def run_child(args, mode: str, inputs: Path | None, work: Path, deadline: float, tag: str) -> dict:
    result = work / f"{args.workload}-seed{args.seed}-{tag}.child.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--result", str(result)]
    if inputs is not None:
        cmd += ["--inputs", str(inputs)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=15.0, help="how long the timed ops run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nkline" / "__init__.py").is_file():
        print(f"error: no nkline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["default_seed"]
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "results"
    work.mkdir(exist_ok=True)
    inputs = make_inputs(args.workload, args.seed, work)

    try:
        if args.trace:
            children = [run_child(args, "trace", inputs, work, deadline, "trace")]
        else:
            children = [run_child(args, "measure", inputs, work, deadline, "measure")]
            children += [run_child(args, "setup", inputs, work, deadline, f"setup{i}")
                         for i in range(1, SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    checked = [c["warmup"] for c in children] + children[0]["ops"]
    digests = Counter(row["sha256"] for row in checked if "sha256" in row)
    failed = sum(1 for row in checked if "error" in row)
    if len(digests) > 1:
        # same seed, same program: every op must write the same bytes
        usual = digests.most_common(1)[0][0]
        failed += sum(1 for row in checked if row.get("sha256") not in (None, usual))
    for row in checked:
        if "error" in row:
            print(f"op failed: {row['error']}", file=sys.stderr)
    passed = [r for r in children[0]["ops"] if "units" in r]
    timed = [r for r in passed if not r["traced"]]
    per_unit = [r["seconds"] / r["units"] for r in timed]
    cost = [t / r["probe_s"] for t, r in zip(per_unit, timed)]
    if not timed or (args.trace and len(timed) == len(passed)):
        print("error: no timed op passed its checks", file=sys.stderr)
        return 4

    if args.trace:
        traced = [r["seconds"] for r in children[0]["ops"] if r["traced"]]
        layers = dict(children[0]["layers"])
        layers["trace.op_s"] = statistics.median(traced)
        layers["trace.untraced_op_s"] = statistics.median(r["seconds"] for r in children[0]["ops"] if not r["traced"])
        layers["trace_overhead"] = layers["trace.op_s"] / layers["trace.untraced_op_s"] - 1
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(layers.items())}
        samples = {"traced_op_s": traced}
    else:
        raw_setups = [c["setup_s"] for c in children]
        setups = [c["setup_s"] * PROBE_REF_S / c["setup_probe_s"] for c in children]
        values = {
            "op_cost": statistics.median(cost),
            "worst_load": statistics.median(r["worst_load"] for r in timed),
            "setup_s": statistics.median(setups),
            "peak_mb": children[0]["peak_mb"],
        }
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
        samples = {"op_s": per_unit, "op_cost": cost, "setup_s": setups, "setup_wall_s": raw_setups}

    attempted = len(checked)
    params = {k: v for k, v in WORKLOADS[args.workload].items() if k != "default_seed"}
    print(f"workload {args.workload} seed {args.seed} params {params} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {OP_ALIAS[args.workload]} = op_s = {statistics.median(per_unit):.6g} s"
              f"  (wall time, median of {len(per_unit)} ops, samples {[round(v, 4) for v in per_unit]})")
        print(f"  op_cost samples {[round(v, 4) for v in cost]}")
        print(f"  setup_s samples {[round(v, 4) for v in setups]}"
              f"  (wall {[round(v, 4) for v in raw_setups]}, scaled to a {PROBE_REF_S} s probe)")
    print(f"  fail_rate = {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    print(f"  sha256 = {' '.join(sorted(digests))}")

    record = {
        "workload": args.workload, "seed": args.seed, "params": params, "trace": args.trace,
        "seconds": args.seconds, "command": [sys.executable, *sys.argv],
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"), "cpu_count": os.cpu_count(),
        "git_sha": git_sha(), "attempted": attempted, "failed": failed, "sha256": sorted(digests),
        "metrics": metrics, "samples": samples, "children": children,
    }
    (work / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
