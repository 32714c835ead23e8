"""Print the sha256 of checkpoint + metrics bytes for a fixed set of runs,
then of the `omx analyze --samples 1000000` report at seeds 0 and 1, then
of what `load_dataset` returns for three dataset files, then of the
pretrained checkpoint of two of the runs.

Each configuration runs build_model -> pretrain -> attach_new_head ->
cluster_train on SplitSpec(seed=seed) with the case's "split" fields, then
writes the checkpoint and the metrics CSV. The printed digest covers the
checkpoint bytes followed by the CSV bytes. That checkpoint's new head is
attach_new_head's fresh one, so the "pretrain <case>" lines also hash what
`omx pretrain` writes: the checkpoint saved right after pretrain, before
attach_new_head.

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
runs, both reports, the three loads and the two pretrains take about 21 s
on a shared 2-core Xeon, more under load.
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

from openmix import cli, data, train  # noqa: E402
from openmix.checkpoint import save_checkpoint  # noqa: E402
from openmix.config import RunConfig  # noqa: E402

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


def pretrained(seed: int, fields: dict):
    fields = dict(fields)
    ds = data.generate_blobs(data.SplitSpec(seed=seed, **fields.pop("split", {})))
    cfg = RunConfig(seed=seed, **fields).validate()
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    train.pretrain(model, ds.labeled, cfg)
    return ds, cfg, model


def file_digest(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_digest(seed: int, fields: dict, workdir: str) -> str:
    ds, cfg, model = pretrained(seed, fields)
    train.attach_new_head(model, ds.c_u, train.stream_seed(cfg.seed, train.TAG_HEAD))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the no-anchor warning
        reports = train.cluster_train(model, ds, cfg)
    model_path = os.path.join(workdir, "model.omx")
    metrics_path = os.path.join(workdir, "metrics.csv")
    save_checkpoint(model_path, model)
    train.write_metrics_csv(metrics_path, reports)
    return file_digest(model_path, metrics_path)


def pretrain_digest(seed: int, fields: dict, workdir: str) -> str:
    model_path = os.path.join(workdir, "pretrained.omx")
    save_checkpoint(model_path, pretrained(seed, fields)[2])
    return file_digest(model_path)


def analyze_digest(seed: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["analyze", "--samples", "1000000", "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError(f"omx analyze exited {rc}")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


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
    with tempfile.TemporaryDirectory(prefix="run-hashes-") as workdir:
        for name, (seed, fields) in CONFIGS.items():
            print(f"{run_digest(seed, fields, workdir)}  {name}", flush=True)
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
            print(f"{pretrain_digest(*CONFIGS[name], workdir)}  pretrain {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
