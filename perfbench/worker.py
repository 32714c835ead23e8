"""One repetition of one perfbench workload, in a fresh process.

run.py launches this file once per repetition, and once per extra set-up
sample, so that every repetition pays the same interpreter start, imports
and set-up and reports its own peak resident memory. It prints one JSON
object on its last stdout line.

    python3 perfbench/worker.py --workload cluster-full --seed 0 \
        --mode run --trace 0 --workdir .perfbench_work/x/rep0
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

WORKLOADS = ("cluster-full", "cluster-baseline", "cli-io")
OPERATIONS = {
    "cluster-full": ("pretrain", "cluster"),
    "cluster-baseline": ("pretrain", "cluster"),
    "cli-io": ("gen-data", "pretrain", "cluster", "eval", "analyze"),
}

# cli-io: a large split on a short schedule (mixing never starts because
# cluster_epochs < labeled_mix_epoch), so file formats, parsing and the
# theory Monte Carlo carry a large share of the run
CLI_PER_CLASS = 5000
CLI_EPOCHS = 1
ANALYZE_SAMPLES = 1_000_000

# Final ACC below this fails the run: far above the chance level of five
# clusters (about 0.2), so only a run whose training broke trips it. Acceptance
# gate 6's 0.85 bounds the median over seeds, not each seed: cluster-full ends
# at 0.793 at seed 10 and cli-io at 0.845 at seed 6.
ACC_FLOOR = 0.5

# A stage that lasts a second or two is too short for one sample to average
# out the machine's second-scale speed swings, so after its timed run each
# repetition times its short stages again: the pretrain stage three more
# times on the cluster workloads, the pretrain and cluster commands once more
# on cli-io, where a third repetition gives more than further samples would.
# Set-up launches of the cluster workloads also time one pretrain each.
EXTRA_SAMPLES = 3
CLI_EXTRA_SAMPLES = 1

CLI_HOLDS = re.compile(r"clean-labeled mixing: (\d+)/(\d+) cases hold")
CLI_ACC = re.compile(r"^ACC ([0-9.]+)$", re.M)


def clock() -> float:
    """System-wide monotonic time, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def configure(workload: str, seed: int, work: Path):
    """The workload's SplitSpec and RunConfig; the seed sets both."""
    from openmix.config import RunConfig
    from openmix.data import SplitSpec

    if workload == "cli-io":
        spec = SplitSpec(per_class=CLI_PER_CLASS, seed=seed)
        cfg = RunConfig(
            seed=seed,
            pretrain_epochs=CLI_EPOCHS,
            cluster_epochs=CLI_EPOCHS,
            data_dir=str(work / "data"),
            out_dir=str(work / "out"),
        )
    else:
        spec = SplitSpec(seed=seed)
        cfg = RunConfig(seed=seed, disable_openmix=workload == "cluster-baseline")
    return spec.validate(), cfg.validate()


def geometry(spec, cfg) -> dict:
    """Work a workload must do, counted from its spec and config alone."""
    n_l = spec.c_l * spec.per_class
    n_u = spec.c_u * spec.per_class
    pre_steps = math.ceil(n_l / cfg.batch_labeled) * cfg.pretrain_epochs
    unl_steps = math.ceil(n_u / cfg.batch_unlabeled)
    # labeled mixing is injected unconditionally from labeled_mix_epoch on;
    # anchor mixing changes what a mixed batch holds, not whether it exists
    mixing = cfg.lambda2 > 0 and not cfg.disable_openmix
    mix_epochs = max(0, cfg.cluster_epochs - cfg.labeled_mix_epoch + 1) if mixing else 0
    mixed_steps = unl_steps * mix_epochs
    dims = [spec.input_dim, *cfg.hidden_dims, cfg.feature_dim]
    return {
        "pool": n_u,
        "cluster_epochs": cfg.cluster_epochs,
        "steps": pre_steps + unl_steps * cfg.cluster_epochs,
        "mixed_steps": mixed_steps,
        "train_rows": n_l * cfg.pretrain_epochs
        + n_u * cfg.cluster_epochs
        + mixed_steps * cfg.batch_mixed,
        "macs_per_row": sum(a * b for a, b in zip(dims[:-1], dims[1:]))
        + cfg.feature_dim * (spec.c_l + spec.c_u),
    }


def read_metrics_csv(path: Path) -> tuple[float, float, float]:
    """Final ACC, final NMI and mean anchor count from a metrics CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cols = lines[0].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    anchors = sum(int(r["anchor_count"]) for r in rows) / len(rows)
    return float(rows[-1]["acc"]), float(rows[-1]["nmi"]), anchors


class Ops:
    """Every operation run, as [name, None] or [name, reason it failed]."""

    def __init__(self) -> None:
        self.entries: list[list] = []

    @contextlib.contextmanager
    def run(self, name: str):
        entry = [name, None]
        self.entries.append(entry)
        try:
            yield
        except Exception as exc:  # a failed stage is counted, not fatal
            entry[1] = f"{type(exc).__name__}: {exc}"

    def fail(self, name: str, reason: str) -> None:
        """Mark the first successful operation called name as failed."""
        for entry in self.entries:
            if entry[0] == name and entry[1] is None:
                entry[1] = reason
                return

    def ok(self, name: str) -> bool:
        mine = [reason for op, reason in self.entries if op == name]
        return bool(mine) and not any(mine)


def run_cluster(args, spec, cfg, out: dict, ops: Ops, tracer) -> None:
    from openmix import checkpoint, data, train

    # Warm-up: a short run of both stages, through the first mixed epoch,
    # brings the allocator's heap to its steady size. Without it the first
    # pretrain in a process pays 0.1-0.8 s of page faults that vary from
    # process to process; with it that cost lands in setup_s. The run's own
    # data is generated afresh below, so a traced run records that call.
    ds = data.generate_blobs(spec)
    warm = dataclasses.replace(cfg, pretrain_epochs=1, cluster_epochs=cfg.labeled_mix_epoch)
    model = train.build_model(warm, ds.input_dim, ds.c_l, ds.c_u)
    train.pretrain(model, ds.labeled, warm)
    train.cluster_train(model, ds, warm)
    if tracer:
        tracer.install()

    ds = data.generate_blobs(spec)
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    out["ready_at"] = clock()
    if args.mode == "setup":
        t0 = time.perf_counter()
        with ops.run("pretrain"):
            train.pretrain(model, ds.labeled, cfg)
        out["pretrain_samples"] = [time.perf_counter() - t0]
        return
    top0 = tracer.top_s if tracer else 0.0

    t0 = time.perf_counter()
    with ops.run("pretrain"):
        train.pretrain(model, ds.labeled, cfg)
    t1 = time.perf_counter()
    reports = None
    with ops.run("cluster"):
        if not ops.ok("pretrain"):
            raise RuntimeError("not run: pretrain failed")
        train.attach_new_head(model, ds.c_u, train.stream_seed(cfg.seed, train.TAG_HEAD))
        reports = train.cluster_train(model, ds, cfg)
    t2 = time.perf_counter()
    out.update(pretrain_s=t1 - t0, cluster_s=t2 - t1, run_s=t2 - t0, peak_rss_mb=peak_rss_mb())
    if tracer:
        out["top_s"] = tracer.top_s - top0
        tracer.uninstall()

    out["pretrain_samples"], out["cluster_samples"] = [t1 - t0], [t2 - t1]
    for _ in range(EXTRA_SAMPLES):
        fresh = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
        t0 = time.perf_counter()
        with ops.run("pretrain"):
            train.pretrain(fresh, ds.labeled, cfg)
        out["pretrain_samples"].append(time.perf_counter() - t0)

    # output checks, outside the timed region
    if reports is not None:
        work = Path(args.workdir)
        files = {"model.omx": work / "model.omx", "metrics.csv": work / "metrics.csv"}
        checkpoint.save_checkpoint(str(files["model.omx"]), model)
        train.write_metrics_csv(str(files["metrics.csv"]), reports)
        out["hashes"] = {k: sha256(p) for k, p in files.items()}
        out["final_acc"], out["final_nmi"], out["anchors"] = read_metrics_csv(
            files["metrics.csv"]
        )


def run_cli(args, spec, cfg, out: dict, ops: Ops, tracer) -> None:
    from openmix import cli, data

    work = Path(args.workdir)
    spec_path, cfg_path = work / "spec.txt", work / "run.cfg"
    spec_keys = ("per_class", "seed")
    cfg_keys = ("seed", "pretrain_epochs", "cluster_epochs", "data_dir", "out_dir")
    spec_path.write_text("".join(f"{k} = {getattr(spec, k)}\n" for k in spec_keys))
    cfg_path.write_text("".join(f"{k} = {getattr(cfg, k)}\n" for k in cfg_keys))
    if tracer:
        tracer.install()
    out["ready_at"] = clock()
    if args.mode == "setup":
        return
    top0 = tracer.top_s if tracer else 0.0

    files = {
        "dataset.csv": Path(cfg.data_dir) / cli.DATASET_FILE,
        "pretrained.omx": Path(cfg.out_dir) / cli.PRETRAIN_FILE,
        "model.omx": Path(cfg.out_dir) / cli.MODEL_FILE,
        "metrics.csv": Path(cfg.out_dir) / cli.METRICS_FILE,
    }
    commands = [
        ("gen-data", ["--spec", str(spec_path), "--out", cfg.data_dir]),
        ("pretrain", ["--config", str(cfg_path)]),
        ("cluster", ["--config", str(cfg_path), "--checkpoint", str(files["pretrained.omx"])]),
        ("eval", ["--checkpoint", str(files["model.omx"]), "--data", cfg.data_dir]),
        ("analyze", ["--samples", str(ANALYZE_SAMPLES), "--seed", str(args.seed)]),
    ]
    printed: dict[str, str] = {}
    seconds: dict[str, float] = {}

    def omx(name: str, argv: list[str]) -> None:
        buf = io.StringIO()
        t0 = time.perf_counter()
        span = tracer.open() if tracer else 0.0
        with ops.run(name), contextlib.redirect_stdout(buf):
            try:
                code = cli.main([name, *argv])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            if code != 0:
                raise RuntimeError(f"omx {name} exited {code}")
        if tracer:
            tracer.close(f"cli.{name}", span)
        seconds[name] = time.perf_counter() - t0
        printed[name] = buf.getvalue()

    start = time.perf_counter()
    for name, argv in commands:
        omx(name, argv)
    out.update(
        pretrain_s=seconds["pretrain"],
        cluster_s=seconds["cluster"],
        run_s=time.perf_counter() - start,
        peak_rss_mb=peak_rss_mb(),
    )
    if tracer:
        out["top_s"] = tracer.top_s - top0
        tracer.uninstall()
        tracer = None  # the extra samples below are not traced

    out["pretrain_samples"], out["cluster_samples"] = [seconds["pretrain"]], [seconds["cluster"]]
    for _ in range(CLI_EXTRA_SAMPLES):
        omx(*commands[1])
        omx(*commands[2])
        out["pretrain_samples"].append(seconds["pretrain"])
        out["cluster_samples"].append(seconds["cluster"])

    # output checks, outside the timed region
    out["hashes"] = {k: sha256(p) for k, p in files.items() if p.is_file()}
    if ops.ok("cluster"):
        out["final_acc"], out["final_nmi"], out["anchors"] = read_metrics_csv(
            files["metrics.csv"]
        )
    if ops.ok("eval"):
        found = CLI_ACC.search(printed["eval"])
        if not found or abs(float(found.group(1)) - out.get("final_acc", -1.0)) > 5e-7:
            ops.fail("eval", "eval ACC disagrees with the last metrics.csv row")
    if ops.ok("analyze"):
        found = CLI_HOLDS.search(printed["analyze"])
        if not found or found.groups() != (str(ANALYZE_SAMPLES),) * 2:
            ops.fail("analyze", f"analyze did not hold on all {ANALYZE_SAMPLES} cases")
    if ops.ok("gen-data") and args.check_dataset:
        if data.load_dataset(str(files["dataset.csv"])) != data.generate_blobs(spec):
            ops.fail("gen-data", "load_dataset(written file) != generate_blobs(spec)")


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(Exception):  # the config layout varies across numpy versions
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--check-dataset", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import openmix

    if SRC.resolve() not in Path(openmix.__file__).resolve().parents:
        print(f"openmix was imported from {openmix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec, cfg = configure(args.workload, args.seed, Path(args.workdir))
    geo = geometry(spec, cfg)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(cfg.batch_unlabeled, geo["macs_per_row"])

    out: dict = {"geometry": geo}
    ops = Ops()
    runner = run_cli if args.workload == "cli-io" else run_cluster
    runner(args, spec, cfg, out, ops, tracer)
    if out.get("final_acc", 1.0) < ACC_FLOOR:
        ops.fail("cluster", f"final ACC {out['final_acc']:.4f} < {ACC_FLOOR}")
    out["ops"] = ops.entries
    if args.mode == "run":
        out["environment"] = environment()
    if tracer:
        out["layers"] = tracer.snapshot()
        out["absent"] = tracer.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
