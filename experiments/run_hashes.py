"""Print the sha256 of checkpoint + metrics bytes for a fixed set of runs.

Each configuration runs build_model -> pretrain -> attach_new_head ->
cluster_train on SplitSpec(seed=seed) with the case's "split" fields, then
writes the checkpoint and the metrics CSV. The printed digest covers the
checkpoint bytes followed by the CSV bytes. A change meant to keep runs
byte-identical is checked by running this at the parent commit and at the
change, then diffing:

    PYTHONPATH=src python3 experiments/run_hashes.py > hashes.txt

A parent commit whose copy of this script lacks a case is checked by
running this copy with PYTHONPATH pointing at the parent's src/.

BLAS threading is pinned to one thread before numpy loads, because a
multi-threaded BLAS may sum in a different order from run to run. All 14
runs take about 20 s on a 2-core Xeon.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

from openmix import data, train  # noqa: E402
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
    # 426 = 5 * 85 + 1 pool rows: nn.logits' 85-row blocks leave a 1-row tail
    "short c_u=6, per_class=71": (0, dict(SHORT, split=dict(c_u=6, per_class=71))),
}


def run_digest(seed: int, fields: dict, workdir: str) -> str:
    fields = dict(fields)
    ds = data.generate_blobs(data.SplitSpec(seed=seed, **fields.pop("split", {})))
    cfg = RunConfig(seed=seed, **fields).validate()
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    train.pretrain(model, ds.labeled, cfg)
    train.attach_new_head(model, ds.c_u, train.stream_seed(cfg.seed, train.TAG_HEAD))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the no-anchor warning
        reports = train.cluster_train(model, ds, cfg)
    model_path = os.path.join(workdir, "model.omx")
    metrics_path = os.path.join(workdir, "metrics.csv")
    save_checkpoint(model_path, model)
    train.write_metrics_csv(metrics_path, reports)
    digest = hashlib.sha256()
    for path in (model_path, metrics_path):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="run-hashes-") as workdir:
        for name, (seed, fields) in CONFIGS.items():
            print(f"{run_digest(seed, fields, workdir)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
