"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload {cli,family,decode,gfq} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ./src (pure
Python; the compiled kernels are used only if they were built in place).
The workload's instances are generated from --seed into a temporary
directory under the root, which is removed at the end.

Each pass runs the workload's operations in a fresh interpreter, as one
closed-loop client issuing one operation at a time, so the library's
caches start cold as they do for a user.  With --trace 0 passes repeat
until --seconds is used.

Times are calibrated: the worker times a fixed pure-Python reference
loop around the operations (see worker.py), and each time t is reported
as t * REF_NOMINAL_S / ref, the time the operation would take on a
machine where the reference loop takes REF_NOMINAL_S.  A shared virtual
machine's speed drifts by 15-50% within seconds to minutes; the ratio
cancels most of that drift, and a change to the library moves the
operation's time but not the reference's.  Raw times are printed too.

* each operation's time is the median over the run's passes of its
  calibrated time; wall_s is the sum of those (one pass over the
  operation list) and op_p50_ms their median;
* setup_s is the median over calibrated set-up samples: four
  set-up-only interpreters before each pass, plus each pass's own set-up;
* peak_rss_mb is the median over passes of the worker's peak RSS.

With --trace 1 untraced and traced passes alternate and the per-layer
metrics are medians over the traced ones.  Every answer is checked after
the timed region (see check.py).

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the
environment, every failed operation, and all metrics by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import Checker, simulate_counts
from spans import SPANNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PER_PASS = 4
REF_NOMINAL_S = 0.005
WORKER_TIMEOUT_S = 170


def run_worker(plan_file: Path, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_file), *flags],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated(t: float, ref: float) -> float:
    return t * REF_NOMINAL_S / ref


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Tally:
    """Verdicts of every operation attempted in the run."""

    def __init__(self, checker, ops):
        self.checker = checker
        self.ops = ops
        self.cache: dict[tuple[str, str], tuple[str, str]] = {}
        self.attempted = self.failed = self.known = 0
        self.notes: dict[str, str] = {}

    def add_pass(self, results: list[dict]) -> None:
        for op, res in zip(self.ops, results, strict=True):
            answer = {k: v for k, v in res.items() if k not in ("t", "ref")}
            key = (op["label"], json.dumps(answer, sort_keys=True))
            if key not in self.cache:
                self.cache[key] = self.checker.verdict(op, res)
            status, why = self.cache[key]
            self.attempted += 1
            if status != "ok":
                self.known += status == "known-defect"
                self.failed += status != "known-defect"
                self.notes[op["label"]] = f"{status}: {why}"


def measure(plan_file: Path, seconds: float, tally: Tally) -> dict:
    passes: list[dict] = []
    setups: list[float] = []
    costs: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setups += [run_worker(plan_file, "--setup-only")
                   for _ in range(SETUP_PER_PASS)]
        passes.append(run_worker(plan_file))
        costs.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(costs) > seconds:
            break
    for p in passes:
        tally.add_pass(p["ops"])
    setups += passes
    setup_s = [calibrated(s["setup_s"], s["setup_ref_s"]) for s in setups]
    per_op = list(zip(*([calibrated(r["t"], r["ref"]) for r in p["ops"]]
                        for p in passes)))
    op_median = [statistics.median(ts) for ts in per_op]
    op_times = [t for ts in per_op for t in ts]
    p95 = percentile(op_times, 95)
    raw_wall = [sum(r["t"] for r in p["ops"]) for p in passes]
    return {
        "values": {
            "wall_s": sum(op_median),
            "op_p50_ms": statistics.median(op_median) * 1e3,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        },
        "info": [
            f"passes: {len(passes)}, operations per pass: {len(tally.ops)}",
            "raw (uncalibrated) pass times: "
            + ", ".join(f"{w:.3f} s" for w in raw_wall),
            "reference loop: median "
            f"{statistics.median(r['ref'] for p in passes for r in p['ops']) * 1e3:.3f}"
            f" ms, calibrated to {REF_NOMINAL_S * 1e3:g} ms",
            f"op_p95_ms: {p95 * 1e3:.4f} ms over {len(op_times)} operations, "
            f"{sum(t > p95 for t in op_times)} beyond it"
            + ("" if sum(t > p95 for t in op_times) >= 10
               else " (too few to rely on)"),
            f"setup samples: {len(setups)}",
        ],
        "backend": passes[0]["backend"],
    }


def layer_values(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer never entered reads 0."""
    calls, self_s = trace["calls"], trace["self_s"]
    answers = calls.get("encoder.optimal_length", 0)
    lookups = trace["l_q_hits"] + trace["l_q_misses"]
    out = {"encoder.candidates_per_answer":
           trace["kernel_calls_in_optimal_length"] / answers if answers else 0.0,
           "encoder.l_q.hit_ratio": trace["l_q_hits"] / lookups if lookups else 0.0,
           "gfield.ops": trace["field_ops"],
           "cli.self_s": self_s.get("cli", 0.0)}
    for _, _, name in SPANNED:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = self_s.get(name, 0.0)
    return out


def cross_check(trace: dict, tally: Tally,
                results: list[dict]) -> list[tuple[str, int, int]]:
    """Counts the traced pass must agree with, from the workload itself:
    (description, traced count, expected count) for each."""
    trials = sum(tot for op, res in zip(tally.ops, results)
                 if op["expect"]["check"] == "simulate" and res.get("stdout")
                 for _, tot in simulate_counts(res["stdout"]).values())
    return [("bindings that escaped the trace", len(trace["escaped"]), 0),
            ("top-level optimal_length calls vs operations issuing one",
             trace["top_level_optimal_length"],
             sum(op["top_opt"] for op in tally.ops)),
            ("decode_receiver calls vs trials simulate reported",
             trace["calls"].get("decoder.decode_receiver", 0), trials)]


def measure_traced(plan_file: Path, seconds: float, tally: Tally) -> dict:
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        plain.append(run_worker(plan_file))
        traced.append(run_worker(plan_file, "--trace"))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    checks = []
    for p in plain:
        tally.add_pass(p["ops"])
    for t in traced:
        tally.add_pass(t["ops"])
        checks += cross_check(t["trace"], tally, t["ops"])
    problems = [f"{what}: {got} != {want}" for what, got, want in checks
                if got != want]
    per_pass = [layer_values(t["trace"]) for t in traced]
    values = {name: statistics.median(v[name] for v in per_pass)
              for name in per_pass[0]}
    def pass_s(p):
        return sum(calibrated(r["t"], r["ref"]) for r in p["ops"])
    values["trace.overhead_frac"] = (
        statistics.median(map(pass_s, traced))
        / statistics.median(map(pass_s, plain)) - 1)
    return {"values": values, "problems": problems,
            "info": [f"pairs of untraced and traced passes: {len(traced)}",
                     f"spans per traced pass: {traced[0]['trace']['spans']}"]
            + [f"cross-check {what}: {got} (expected {want})"
               for what, got, want in checks[:3]],
            "backend": plain[0]["backend"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "icsie" / "__init__.py").is_file():
        print(f"no icsie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import icsie
    import workloads
    if not Path(icsie.__file__).resolve().is_relative_to(SRC):
        print(f"icsie imported from {icsie.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {workloads.WORKLOADS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        plan_file = workdir / "plan.json"
        plan_file.write_text(json.dumps({
            "src": str(SRC),
            "instances": [i["path"] for i in plan.instances.values()],
            "generators": [g["path"] for g in plan.generators.values()],
            "ops": plan.ops}))
        tally = Tally(Checker(icsie, plan), plan.ops)
        run = (measure_traced if args.trace else measure)(plan_file, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = run.get("problems", [])
    print("env: " + json.dumps({"backend": run["backend"],
                                "python": platform.python_version(),
                                "nproc": len(os.sched_getaffinity(0)),
                                "workload": args.workload, "seed": args.seed}))
    for line in run["info"]:
        print(line)
    for label, note in sorted(tally.notes.items()):
        print(f"operation {label}: {note}")
    for problem in problems:
        print(f"cross-check failed: {problem}")
    print(f"known-defect operations: {tally.known} of {tally.attempted} "
          "(not counted in failed)")
    print(f"fail_frac: {(tally.failed + tally.known) / tally.attempted:.6f} "
          f"({tally.failed} failed + {tally.known} known-defect "
          f"of {tally.attempted} operations)")
    metrics = {}
    for m in wanted:
        value = run["values"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0 and not problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
