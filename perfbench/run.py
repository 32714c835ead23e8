"""perfbench: the openmix benchmark.

Runs one workload (or `all`) against the package under src/ and prints, as
its last stdout line, one JSON object with keys correct, attempted, failed
and metrics. Untraced runs (--trace 0) report the end-to-end metrics;
traced runs (--trace 1) report the per-layer metrics. A human-readable
table goes to stderr, and a JSON line with the sample statistics and the
environment precedes the result.

    python3 perfbench/run.py --workload cluster-full --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Every repetition runs in a fresh worker process (worker.py) with one BLAS
thread. See perfbench/README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
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

sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark

from spans import CLI_COMMANDS, per_layer_metrics
from worker import OPERATIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_work"

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("pretrain_s", "s", "lower"),
    ("cluster_s", "s", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Quality of the final model, printed in the table and the detail line but
# not bounded: a seed either recovers all five clusters (ACC about 0.99) or
# merges two (about 0.79), so over ten seeds the quartiles can straddle both
# modes. Training that broke fails the run through the worker's ACC floor.
QUALITY = [("final_acc", "frac"), ("final_nmi", "frac")]

SETUP_LAUNCHES = 3  # extra set-up launches per untraced run
MIN_REPS = 2  # byte-identity across repetitions needs at least two
DEADLINE_S = 170.0  # a run must end within 180 s; no repetition starts past it
MIN_COVERAGE = 0.98  # share of run_s that top-level spans must cover

# which operation wrote each output file, for the byte-identity check
FILE_OWNER = {
    "dataset.csv": "gen-data",
    "pretrained.omx": "pretrain",
    "model.omx": "cluster",
    "metrics.csv": "cluster",
}

WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(workload: str, seed: int, mode: str, trace: bool, work: Path, check_dataset: bool,
           timeout: float) -> dict:
    """Run one worker process to completion; its result, or {"error": ...}."""
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--trace", str(int(trace)), "--workdir", str(work),
        "--check-dataset", str(int(check_dataset)),
    ]
    t0 = clock()
    try:
        proc = subprocess.run(cmd, env=WORKER_ENV, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"error": f"worker timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = clock() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exited {proc.returncode}: {' | '.join(tail)}"}
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready_at"] - t0
    out["wall"] = wall
    out["traced"] = trace
    return out


def environment(seed: int, trace: bool, workload: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def summary(values: list[float]) -> dict:
    """Median, maximum and sample count.

    A run takes at most about twenty samples of a metric, too few for any
    percentile above the median to have ten samples beyond it, so the
    maximum stands in for the high percentile.
    """
    if not values:
        return {"median": 0.0, "max": 0.0, "n": 0}
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def count_ops(workload: str, reps: list[dict], setup_runs: list[dict]) -> tuple[int, list[str]]:
    """Operations attempted, and a reason for each that failed.

    A worker that crashed counts each of its workload's operations as failed.
    An output file whose bytes differ from the first repetition's fails the
    operation that wrote it.
    """
    attempted, failures = 0, []
    for run in setup_runs:
        ops = run.get("ops", [])
        attempted += len(ops)
        failures += [f"set-up {name}: {reason}" for name, reason in ops if reason]
    first = next((r["hashes"] for r in reps if "hashes" in r), {})
    for i, rep in enumerate(reps):
        if "error" in rep:
            attempted += len(OPERATIONS[workload])
            failures += [f"rep {i} {op}: {rep['error']}" for op in OPERATIONS[workload]]
            continue
        ops = rep["ops"]
        for name, digest in first.items():
            if rep.get("hashes", {}).get(name) != digest:
                owner = next((op for op in ops if op[0] == FILE_OWNER[name]), None)
                if owner and owner[1] is None:
                    owner[1] = f"{name} bytes differ from the first repetition"
        attempted += len(ops)
        failures += [f"rep {i} {name}: {reason}" for name, reason in ops if reason]
    return attempted, failures


def trace_checks(workload: str, traced: list[dict]) -> list[str]:
    """Counts every correct implementation keeps, from the workload geometry."""
    problems = []
    for rep in traced:
        layers, geo, absent = rep["layers"], rep["geometry"], set(rep["absent"])
        expect = {
            "optim.RmspropState.step": geo["steps"],
            "train.evaluate": geo["cluster_epochs"] + (workload == "cli-io"),
            "mixing.build_mixed_batch": geo["mixed_steps"],
        }
        for name, want in expect.items():
            got = layers[name + ".calls"]
            if name not in absent and got != want:
                problems.append(f"{name}.calls is {got}, geometry says {want}")
        if workload == "cli-io":
            missing = [c for c in CLI_COMMANDS if not layers[f"cli.{c}.s"] > 0]
            if missing:
                problems.append(f"cli commands not recorded: {missing}")
        if rep["top_s"] < MIN_COVERAGE * rep["run_s"]:
            problems.append(f"top-level spans cover {rep['top_s']:.3f} of {rep['run_s']:.3f} s")
        for key, value in layers.items():
            if key.endswith(".calls") and value != traced[0]["layers"][key]:
                problems.append(f"{key} differs between traced repetitions")
    return problems


def layer_values(traced: list[dict], untraced_run_s: float) -> dict[str, float]:
    """Counts from the first traced repetition; times as medians over all."""
    values = {}
    for name, _, _ in per_layer_metrics():
        samples = [r["layers"].get(name, 0.0) for r in traced]
        timed = name.endswith(".self_s") or name.startswith("cli.")
        values[name] = statistics.median(samples) if timed else samples[0]
    first = traced[0]
    values["mixing.anchor_frac"] = first.get("anchors", 0.0) / first["geometry"]["pool"]
    traced_run_s = statistics.median(r["run_s"] for r in traced)
    values["trace_overhead_frac"] = traced_run_s / untraced_run_s - 1.0 if untraced_run_s else 0.0
    return values


def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail)."""
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    start = clock()
    setup_runs: list[dict] = []
    reps: list[dict] = []
    try:
        if not trace:
            for i in range(SETUP_LAUNCHES):
                setup_runs.append(launch(workload, seed, "setup", False, work / f"setup{i}",
                                         False, DEADLINE_S - (clock() - start)))
        loop_start = clock()
        while True:
            # start a repetition only if it should end within the run's time
            longest = max((r.get("wall", 0.0) for r in reps), default=0.0)
            if len(reps) >= MIN_REPS and clock() - loop_start + longest > seconds:
                break
            if reps and clock() - start + longest > DEADLINE_S:
                break
            # traced runs alternate untraced and traced repetitions, so the
            # overhead compares like with like
            traced = trace and len(reps) % 2 == 1
            reps.append(launch(workload, seed, "run", traced, work / f"rep{len(reps)}",
                               len(reps) == 0, DEADLINE_S + 5.0 - (clock() - start)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            SCRATCH.rmdir()

    attempted, failures = count_ops(workload, reps, setup_runs)
    problems = [f"setup: {r['error']}" for r in setup_runs if "error" in r]
    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    samples = {
        "setup_s": [r["setup_s"] for r in setup_runs + plain if "error" not in r],
        "pretrain_s": [t for r in setup_runs + plain for t in r.get("pretrain_samples", [])],
        "cluster_s": [t for r in plain for t in r["cluster_samples"]],
    }
    for name in ("run_s", "final_acc", "final_nmi", "peak_rss_mb"):
        samples[name] = [r[name] for r in plain if name in r]
    stats = {name: summary(samples[name]) for name in samples}
    # training rows from the geometry, over the median stage times
    stage_s = stats["pretrain_s"]["median"] + stats["cluster_s"]["median"]
    rows = plain[0]["geometry"]["train_rows"] if plain else 0
    stats["rows_per_s"] = {"median": rows / stage_s if stage_s else 0.0, "max": None,
                           "n": stats["cluster_s"]["n"]}

    absent: list[str] = []
    if trace:
        traced = [r for r in good if r["traced"]]
        values: dict[str, float] = {}
        if traced:
            problems += trace_checks(workload, traced)
            values = layer_values(traced, stats["run_s"]["median"])
            absent = traced[0]["absent"]
        else:
            problems.append("no traced repetition")
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit, _ in per_layer_metrics()}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit, _ in END_TO_END}

    failed = len(failures)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = environment(seed, trace, workload)
    env.update(next((r["environment"] for r in good), {}))
    detail = {
        "environment": env,
        "repetitions": {"run": len(reps), "setup": len(setup_runs)},
        "error_rate": failed / attempted if attempted else 1.0,
        "stats": stats,
        "failures": failures,
        "problems": problems,
        "absent": absent,
        "elapsed_s": clock() - start,
    }
    return result, detail


def print_table(workload: str, result: dict, detail: dict) -> None:
    err = sys.stderr
    print(f"== {workload}  seed {detail['environment']['seed']}  "
          f"trace {int(detail['environment']['traced'])}  "
          f"repetitions {detail['repetitions']}", file=err)
    for name, metric in result["metrics"].items():
        stat = detail["stats"].get(name)
        extra = f"  max {stat['max']:.6g}  n {stat['n']}" if stat and stat["max"] else ""
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']:8s}{extra}", file=err)
    if not detail["environment"]["traced"]:
        for name, unit in QUALITY:
            stat = detail["stats"][name]
            print(f"  {name + ' (unbounded)':44s} {stat['median']:>14.6g} {unit:8s}"
                  f"  max {stat['max']:.6g}  n {stat['n']}", file=err)
    print(f"  {'error_rate':44s} {detail['error_rate']:>14.6g} failed/attempted  "
          f"({result['failed']}/{result['attempted']})", file=err)
    for line in detail["failures"] + detail["problems"]:
        print(f"  FAILED {line}", file=err)
    for name in detail["absent"]:
        print(f"  absent {name}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="openmix benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "openmix" / "__init__.py").is_file():
        print(f"perfbench: no openmix package under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, detail = bench(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, result, detail)
        print(json.dumps({"detail": detail}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()} if len(names) > 1
            else result["metrics"]
        )
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
