"""Print the sha256 of checkpoint + metrics bytes for a fixed set of runs,
then of the `omx analyze --samples 1000000` report at seeds 0 and 1, then
of what `load_dataset` returns for three dataset files, then of the
pretrained checkpoint of two of the runs.

Each configuration runs omx itself, in this process: it writes a split spec
(the case's "split" fields and its seed) and a run config (the case's other
fields, its seed, and a temp directory as data_dir and out_dir), then runs
`omx gen-data`, `omx pretrain` and `omx cluster`. The printed digest covers
the bytes of model.omx followed by those of metrics.csv. The "pretrain <case>"
lines hash the pretrained.omx the same runs wrote.

experiments/run_hashes.txt holds the 21 lines this script prints for the
committed code, taken with numpy 2.4.6 and its bundled OpenBLAS 0.3.31
(Haswell kernels) on a 2-core Intel Xeon. A change meant to keep runs
byte-identical shows an empty

    diff <(PYTHONPATH=src python3 experiments/run_hashes.py) experiments/run_hashes.txt

Another numpy, BLAS or CPU may round differently; there, run this script at
the parent commit and at the change and diff the two outputs instead. A
change that alters the bytes on purpose (a new anchor rule, say) replaces
run_hashes.txt in the same commit.

The loaded files are the writer's own at SplitSpec(per_class=5000) and
seeds 0 and 1, which numpy's C reader parses, and a valid seed-0 file with
spaces and "_" in its features, which only the per-line route takes. Each
digest covers the features then the labels of the labeled and unlabeled
rows.

A parent commit whose copy of this script lacks a case is checked by
running this copy with PYTHONPATH pointing at the parent's src/.

BLAS threading is pinned to one thread before numpy loads, because a
multi-threaded BLAS may sum in a different order from run to run. All 14
runs, both reports and the three loads take about 15 s on a shared 2-core
Xeon, more under load.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

from openmix import cli, data  # noqa: E402

SHORT = dict(pretrain_epochs=30, cluster_epochs=12)

# name -> (split seed, RunConfig fields, plus SplitSpec fields under "split").
# The run seed equals the split seed.
CONFIGS = {
    "full seed 0": (0, {}),
    "full seed 3": (3, {}),
    # merges two clusters and meets evaluations whose best match is tied
    # between assignments that differ on non-empty clusters
    "full seed 10": (10, {}),
    "full disable_openmix": (0, dict(disable_openmix=True)),
    "short default": (0, SHORT),
    "short early anchors, theta2=0.6": (0, dict(SHORT, theta2=0.6, anchor_mix_epoch=3)),
    "short labeled-only": (0, dict(SHORT, anchor_mix_epoch=1000)),
    "short anchor-only": (0, dict(SHORT, labeled_mix_epoch=1000, anchor_mix_epoch=2)),
    "short epsilon=0.3, batch_mixed=17": (0, dict(SHORT, epsilon=0.3, batch_mixed=17)),
    "short hidden_dims=[32]": (0, dict(SHORT, hidden_dims=[32])),
    "short hidden_dims=[32], batch_unlabeled=17": (
        0, dict(SHORT, hidden_dims=[32], batch_unlabeled=17)
    ),
    "short freeze_epochs=5": (0, dict(SHORT, freeze_epochs=5)),
    "short theta1=0.8, theta2=0.7, lambda1=0.5": (
        0, dict(SHORT, theta1=0.8, theta2=0.7, lambda1=0.5)
    ),
    # a new head wider than the old one, scored on a 426-row pool
    "short c_u=6, per_class=71": (0, dict(SHORT, split=dict(c_u=6, per_class=71))),
}
ANALYZE_SEEDS = (0, 1)
LOAD_SEEDS = (0, 1)
PRETRAIN_CASES = ("full seed 0", "short hidden_dims=[32]")
DIGIT_PAIR = re.compile(r"(\d)(\d)")


def omx(*argv: str) -> str:
    """Run one omx command in this process and return its stdout; a nonzero exit raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the no-anchor warning
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"omx {argv[0]} exited {rc}")
    return out.getvalue()


def write_flat(path: str, fields: dict) -> str:
    """Write fields as a `key = value` file, a list comma-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in fields.items():
            text = ",".join(map(str, value)) if isinstance(value, list) else value
            fh.write(f"{key} = {text}\n")
    return path


def file_digest(workdir: str, *names: str) -> str:
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(workdir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_digests(seed: int, fields: dict, workdir: str) -> tuple[str, str]:
    """Run gen-data, pretrain and cluster for one case in workdir: the digests of
    model.omx + metrics.csv and of pretrained.omx."""
    fields = dict(fields, seed=seed, data_dir=workdir, out_dir=workdir)
    spec = write_flat(os.path.join(workdir, "split.spec"), dict(fields.pop("split", {}), seed=seed))
    config = write_flat(os.path.join(workdir, "run.cfg"), fields)
    omx("gen-data", "--spec", spec, "--out", workdir)
    omx("pretrain", "--config", config)
    omx("cluster", "--config", config, "--checkpoint", os.path.join(workdir, cli.PRETRAIN_FILE))
    run = file_digest(workdir, cli.MODEL_FILE, cli.METRICS_FILE)
    return run, file_digest(workdir, cli.PRETRAIN_FILE)


def analyze_digest(seed: int) -> str:
    report = omx("analyze", "--samples", "1000000", "--seed", str(seed))
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def load_digest(path: str) -> str:
    ds = data.load_dataset(path)
    digest = hashlib.sha256()
    for arr in (ds.labeled.x, ds.labeled.y, ds.unlabeled.x, ds.truth.labels_for_eval()):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def spaced_copy(src: str, dst: str) -> None:
    """Rewrite a dataset file with " " around each feature and "_" between two of its digits."""
    with open(src, encoding="utf-8") as fh:
        head, *rows = fh.read().splitlines()
    out = [head]
    for row in rows:
        kind, label, *feats = row.split(",")
        feats = (DIGIT_PAIR.sub(r"\1_\2", tok, count=1) for tok in feats)
        out.append(",".join([kind, label, *(f" {tok} " for tok in feats)]))
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def main() -> int:
    pretrains = {}
    with tempfile.TemporaryDirectory(prefix="run-hashes-") as workdir:
        for name, (seed, fields) in CONFIGS.items():
            run, pretrains[name] = run_digests(seed, fields, workdir)
            print(f"{run}  {name}", flush=True)
    for seed in ANALYZE_SEEDS:
        print(f"{analyze_digest(seed)}  analyze --samples 1000000 --seed {seed}", flush=True)
    with tempfile.TemporaryDirectory(prefix="run-hashes-") as workdir:
        path = os.path.join(workdir, "dataset.csv")
        for seed in LOAD_SEEDS:
            data.save_dataset(path, data.generate_blobs(data.SplitSpec(per_class=5000, seed=seed)))
            print(f"{load_digest(path)}  load per_class=5000 seed {seed}", flush=True)
        data.save_dataset(path, data.generate_blobs(data.SplitSpec(seed=0)))
        spaced = path + ".spaced"
        spaced_copy(path, spaced)
        print(f"{load_digest(spaced)}  load seed 0 with spaces and underscores", flush=True)
    for name in PRETRAIN_CASES:
        print(f"{pretrains[name]}  pretrain {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
