"""End-to-end checks of the omx command line, driven in process via main()."""

import contextlib
import io
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from openmix import cli, theory, train
from openmix.checkpoint import load_checkpoint, save_checkpoint
from openmix.data import load_dataset
from helpers import dataset_bytes

SPEC_TEXT = """\
c_l = 2
c_u = 3
per_class = 8
input_dim = 6
separation = 6.0
sigma = 1.0
seed = 0
"""


def write_config(dirpath, **overrides):
    # Small everything: the CLI contract is what is under test, not training.
    cfg = {
        "pretrain_epochs": 6,
        "cluster_epochs": 4,
        "freeze_epochs": 1,
        "feature_dim": 16,
        "hidden_dims": "",
        "batch_labeled": 8,
        "batch_unlabeled": 8,
        "batch_mixed": 8,
        "data_dir": str(dirpath / "data"),
        "out_dir": str(dirpath / "out"),
        "seed": 0,
    }
    cfg.update(overrides)
    path = dirpath / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    return path


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny gen-data -> pretrain -> cluster pipeline shared by the tests."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    spec = root / "blobs.spec"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    cfg = write_config(root)

    rc_gen, out_gen = run_cli(["gen-data", "--spec", str(spec), "--out", str(root / "data")])
    assert rc_gen == 0
    rc_pre, out_pre = run_cli(["pretrain", "--config", str(cfg)])
    assert rc_pre == 0
    rc_clu, out_clu = run_cli(
        ["cluster", "--config", str(cfg), "--checkpoint", str(root / "out" / "pretrained.omx")]
    )
    assert rc_clu == 0
    return SimpleNamespace(
        root=root,
        spec=spec,
        cfg=cfg,
        out_gen=out_gen,
        out_pre=out_pre,
        out_clu=out_clu,
    )


def test_gen_data_writes_loadable_dataset(pipeline):
    path = pipeline.root / "data" / "dataset.bin"
    assert path.is_file()
    expected = f"wrote {path}: 16 labeled + 24 unlabeled examples, input_dim 6, 2+3 classes"
    assert pipeline.out_gen.strip() == expected
    ds = load_dataset(str(path))
    assert len(ds.labeled) == 16
    assert len(ds.unlabeled) == 24
    assert (ds.c_l, ds.c_u, ds.input_dim) == (2, 3, 6)


def test_pretrain_writes_checkpoint_and_reports_accuracy(pipeline):
    lines = pipeline.out_pre.strip().splitlines()
    assert lines[0].startswith("final labeled training accuracy: ")
    acc = float(lines[0].rsplit(" ", 1)[1])
    assert 0.0 <= acc <= 1.0
    ckpt = pipeline.root / "out" / "pretrained.omx"
    assert lines[1] == f"wrote {ckpt}"
    model = load_checkpoint(str(ckpt))
    assert (model.input_dim, model.feature_dim) == (6, 16)
    assert (model.c_l, model.c_u) == (2, 3)
    assert model.hidden_dims == []


def test_cluster_writes_model_metrics_and_summary(pipeline):
    model_path = pipeline.root / "out" / "model.omx"
    metrics_path = pipeline.root / "out" / "metrics.csv"
    assert model_path.is_file()
    lines = pipeline.out_clu.strip().splitlines()
    assert lines[0].startswith("final ACC ")
    assert f"wrote {model_path}" in lines
    assert f"wrote {metrics_path}" in lines

    rows = metrics_path.read_text(encoding="utf-8").splitlines()
    assert rows[0] == train.METRICS_HEADER
    assert len(rows) == 1 + 4  # header + one row per clustering epoch
    assert rows[1].split(",")[0] == "1"
    assert rows[-1].split(",")[0] == "4"


def test_eval_matches_final_cluster_epoch(pipeline):
    rc, out = run_cli(
        [
            "eval",
            "--checkpoint",
            str(pipeline.root / "out" / "model.omx"),
            "--data",
            str(pipeline.root / "data"),
        ]
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("ACC ") and lines[1].startswith("NMI ")

    last = (pipeline.root / "out" / "metrics.csv").read_text(encoding="utf-8")
    fields = last.splitlines()[-1].split(",")
    # Same saved parameters, same deterministic forward pass: the printed
    # six-decimal values must match the final metrics row exactly.
    assert lines[0] == f"ACC {float(fields[1]):.6f}"
    assert lines[1] == f"NMI {float(fields[2]):.6f}"


def test_set_override_changes_epoch_count(pipeline, tmp_path):
    out_dir = tmp_path / "out2"
    rc, _ = run_cli(
        [
            "cluster",
            "--config",
            str(pipeline.cfg),
            "--checkpoint",
            str(pipeline.root / "out" / "pretrained.omx"),
            "--set",
            "cluster_epochs=2",
            "--set",
            f"out_dir={out_dir}",
        ]
    )
    assert rc == 0
    rows = (out_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + 2


def test_bad_override_key_exits_2(pipeline, capsys):
    rc = cli.main(["pretrain", "--config", str(pipeline.cfg), "--set", "nope=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "nope" in err


def test_invalid_config_value_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, theta1=2.0)
    rc = cli.main(["pretrain", "--config", str(cfg)])
    assert rc == 2
    assert "theta1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting",
    ["feature_dim=1000000000000", "hidden_dims=100000000000", "batch_mixed=1000000000000"],
)
def test_huge_model_width_exits_2(setting, tmp_path, capsys):
    rc = cli.main(["pretrain", "--config", str(write_config(tmp_path)), "--set", setting])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and setting.split("=")[0] in err


@pytest.mark.parametrize(
    "widths", [[4096] * 8, [1] * 100_000], ids=["8 layers of 4096", "100000 layers of 1"]
)
def test_huge_hidden_stack_exits_2_before_reading_data(widths, tmp_path, capsys, monkeypatch):
    def no_read(data_dir):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(cli, "_load_data", no_read)
    setting = "hidden_dims=" + ",".join(map(str, widths))
    rc = cli.main(["pretrain", "--config", str(write_config(tmp_path)), "--set", setting])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "hidden_dims" in err and "must hold" in err


def test_huge_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "huge.spec"
    spec.write_text(SPEC_TEXT.replace("per_class = 8", "per_class = 1000000000000"))
    rc = cli.main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "per_class" in err


def test_wide_spec_exits_2(tmp_path, capsys):
    # small enough for the split-size cap, too wide for the first layer
    spec = tmp_path / "wide.spec"
    spec.write_text("c_l = 1\nc_u = 2\nper_class = 1\ninput_dim = 1500000\n")
    rc = cli.main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "input_dim must be <= 4096" in err


def test_overflowing_spec_exits_2_and_writes_nothing(tmp_path, capsys):
    spec = tmp_path / "overflow.spec"
    spec.write_text(SPEC_TEXT.replace("sigma = 1.0", "sigma = 1e308"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "d" / cli.DATASET_FILE).exists()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_non_finite_override_exits_2(pipeline, capsys):
    rc = cli.main(["pretrain", "--config", str(pipeline.cfg), "--set", "lr=nan"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "lr must be finite" in err


def test_divergence_exits_3(pipeline, tmp_path, capsys):
    rc = cli.main([
        "pretrain", "--config", str(pipeline.cfg),
        "--set", "lr=1e200", "--set", f"out_dir={tmp_path}",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("divergence: labeled-batch logits became non-finite at epoch 1")
    assert not (tmp_path / cli.PRETRAIN_FILE).exists()


def test_overflowing_second_moments_exit_3(pipeline, tmp_path, capsys):
    # squared mixing gradients overflow the RMSprop moments to inf, whose
    # parameters would then take g / inf = 0 updates and silently stop
    rc = cli.main([
        "cluster", "--config", str(pipeline.cfg),
        "--checkpoint", str(pipeline.root / "out" / cli.PRETRAIN_FILE),
        "--set", "lambda2=1e160", "--set", f"out_dir={tmp_path}",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("divergence: RMSprop second moments became non-finite at epoch 2")
    assert not (tmp_path / cli.MODEL_FILE).exists()


def test_divergence_prints_one_stderr_line(pipeline, tmp_path):
    # in a fresh interpreter with numpy's default warning setting: the
    # overflow on the way to the divergence prints no RuntimeWarning
    proc = subprocess.run(
        [
            sys.executable, "-m", "openmix.cli", "cluster", "--config", str(pipeline.cfg),
            "--checkpoint", str(pipeline.root / "out" / cli.PRETRAIN_FILE),
            "--set", "lambda2=1e160", "--set", f"out_dir={tmp_path}",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=package_env(),
    )
    assert proc.returncode == 3
    assert proc.stderr == "divergence: RMSprop second moments became non-finite at epoch 2\n"


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_1_quietly(tmp_path, capsys, monkeypatch):
    # `omx analyze | head -1`: the reader closing stdout is no file problem
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert cli.main(["analyze", "--samples", "10"]) == 1
        assert capsys.readouterr().err == ""
        # the descriptor now writes to devnull, so the shutdown flush cannot fail
        here, devnull = os.fstat(fd), os.stat(os.devnull)
        assert (here.st_dev, here.st_ino) == (devnull.st_dev, devnull.st_ino)
    finally:
        os.close(fd)


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli.main(["pretrain", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_missing_dataset_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path)
    (tmp_path / "data").mkdir()
    rc = cli.main(["pretrain", "--config", str(cfg)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("i/o error:")


@pytest.mark.parametrize(
    "key,value",
    [
        ("opm_softmax", "joint"),
        ("anchor_labels", "onehot"),
        ("rmsprop_rho", "0.9"),
        ("rmsprop_eps", "1e-8"),
    ],
)
def test_removed_config_key_exits_2(key, value, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    rc = cli.main(["pretrain", "--config", str(cfg)])
    assert rc == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_bad_spec_key_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("c_l = 2\nnot_a_knob = 9\n", encoding="utf-8")
    rc = cli.main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "not_a_knob" in capsys.readouterr().err


def test_eval_geometry_mismatch_exits_4(pipeline, tmp_path, capsys):
    spec = tmp_path / "wide.spec"
    spec.write_text(SPEC_TEXT.replace("input_dim = 6", "input_dim = 7"), encoding="utf-8")
    rc, _ = run_cli(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "data")])
    assert rc == 0
    rc = cli.main(
        [
            "eval",
            "--checkpoint",
            str(pipeline.root / "out" / "model.omx"),
            "--data",
            str(tmp_path / "data"),
        ]
    )
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:")
    assert "input_dim" in err


def test_eval_new_class_count_mismatch_exits_4(pipeline, tmp_path, capsys):
    spec = tmp_path / "extra.spec"
    spec.write_text(SPEC_TEXT.replace("c_u = 3", "c_u = 4"), encoding="utf-8")
    rc, _ = run_cli(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "data")])
    assert rc == 0
    rc = cli.main(
        [
            "eval",
            "--checkpoint",
            str(pipeline.root / "out" / "model.omx"),
            "--data",
            str(tmp_path / "data"),
        ]
    )
    assert rc == 4
    assert "C_u" in capsys.readouterr().err


def test_text_dataset_exits_4(tmp_path, capsys):
    # a dataset in the old text format, under the binary file's name
    (tmp_path / "data").mkdir()
    dataset = tmp_path / "data" / cli.DATASET_FILE
    dataset.write_bytes(b"omx-dataset,v1,6,2,3\nL,0,1.0,2.0,3.0,4.0,5.0,6.0\n")
    rc = cli.main(["pretrain", "--config", str(write_config(tmp_path))])
    assert rc == 4
    assert capsys.readouterr().err == f"i/o error: {dataset}: bad magic bytes, not a dataset\n"


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = 0\n# caf\xe9\n")
    rc = cli.main(["pretrain", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "UTF-8" in err


def test_non_utf8_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "blobs.spec"
    spec.write_bytes(SPEC_TEXT.encode("utf-8") + b"# \x80\n")
    rc = cli.main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "UTF-8" in err


def write_dataset(tmp_path, **fields):
    """tmp_path/data holding helpers.dataset_bytes(**fields) as its dataset file."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / cli.DATASET_FILE).write_bytes(dataset_bytes(**fields))
    return data_dir


def test_no_labeled_rows_exits_4(tmp_path, capsys):
    write_dataset(tmp_path, input_dim=6, n_l=0, n_u=24, y_u=[0, 1, 2] * 8)
    rc = cli.main(["pretrain", "--config", str(write_config(tmp_path))])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "found 0 and 24" in err


def test_header_only_dataset_exits_4(pipeline, tmp_path, capsys):
    data_dir = write_dataset(tmp_path, input_dim=6, n_l=0, n_u=0)
    model = str(pipeline.root / "out" / "model.omx")
    rc = cli.main(["eval", "--checkpoint", model, "--data", str(data_dir)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "found 0 and 0" in err


def test_class_index_out_of_range_exits_4(tmp_path, capsys):
    # the largest int64 as a labeled class of a 2-class side
    write_dataset(tmp_path, y_l=2**63 - 1)
    rc = cli.main(["pretrain", "--config", str(write_config(tmp_path))])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "labeled class index outside [0, 2)" in err


def test_huge_class_count_exits_4(tmp_path, capsys):
    # every row is valid; the header's class count alone is beyond the cap
    write_dataset(tmp_path, c_l=2**32 - 1)
    rc = cli.main(["pretrain", "--config", str(write_config(tmp_path))])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "class counts must be in [1, 4096]" in err


def test_wide_dataset_exits_4(tmp_path, capsys):
    # every row is valid; the header's input_dim alone is beyond the cap
    write_dataset(tmp_path, input_dim=4097)
    rc = cli.main(["pretrain", "--config", str(write_config(tmp_path))])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "input_dim must be in [1, 4096], got 4097" in err


def test_non_finite_checkpoint_exits_4(pipeline, tmp_path, capsys):
    blob = bytearray((pipeline.root / "out" / "model.omx").read_bytes())
    blob[-8:] = struct.pack("<d", float("nan"))  # the last new-head bias
    bad = tmp_path / "nan.omx"
    bad.write_bytes(bytes(blob))
    rc = cli.main(["eval", "--checkpoint", str(bad), "--data", str(pipeline.root / "data")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "non-finite parameter" in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_checkpoint_exits_4(pipeline):
    resource = pytest.importorskip("resource")
    limit = 2**30  # a loader that reads the whole stream stops at a MemoryError here

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [
            sys.executable, "-m", "openmix.cli", "eval", "--checkpoint", "/dev/zero",
            "--data", str(pipeline.root / "data"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**package_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "i/o error: /dev/zero: bad magic bytes, not a checkpoint\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize(
    "argv, what",
    [(["pretrain", "--config"], "config"), (["gen-data", "--out", "unused", "--spec"], "split spec")],
    ids=["config", "spec"],
)
def test_endless_config_exits_2(argv, what, tmp_path):
    resource = pytest.importorskip("resource")
    limit = 2**30  # a reader that takes the whole stream stops at a MemoryError here

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "openmix.cli", *argv, "/dev/zero"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env={**package_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"config error: {what} /dev/zero is larger than {2**20} bytes\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_dataset_exits_4(pipeline, tmp_path):
    # an endless stream under the dataset's name fails at its first bytes, well
    # inside an address-space limit
    resource = pytest.importorskip("resource")
    limit = 2**30
    dataset = tmp_path / cli.DATASET_FILE
    dataset.symlink_to("/dev/zero")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [
            sys.executable, "-m", "openmix.cli", "eval",
            "--checkpoint", str(pipeline.root / "out" / cli.MODEL_FILE), "--data", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**package_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == f"i/o error: {dataset}: bad magic bytes, not a dataset\n"


def test_eval_overflowing_logits_exit_3(pipeline, tmp_path, capsys):
    # finite weights whose logits overflow: eval must not score them
    model = load_checkpoint(str(pipeline.root / "out" / "model.omx"))
    for layer in (*model.backbone, model.new_head):
        layer.w *= 1e200
    big = tmp_path / "big.omx"
    save_checkpoint(str(big), model)
    rc = cli.main(["eval", "--checkpoint", str(big), "--data", str(pipeline.root / "data")])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("divergence: unlabeled-pool logits became non-finite")


@pytest.mark.parametrize(
    "flag,value", [("--samples", "0"), ("--seed", "-1"), ("--samples", "10000000000")]
)
def test_analyze_bad_arguments_exit_2(flag, value, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bad arguments reached the Monte Carlo sweep")

    # the arguments fail before any draw is allocated
    sweeps = ("mixup_blocks", "inequality_blocks", "monte_carlo_mixup", "monte_carlo_inequality")
    for name in sweeps:
        monkeypatch.setattr(cli.theory, name, refuse)
    with pytest.raises(AssertionError, match="reached the Monte Carlo sweep"):
        cli.main(["analyze", "--samples", "1"])  # valid arguments do reach a refused sweep
    rc = cli.main(["analyze", flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--samples >= 1" in err


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 10_000])
def test_analyze_streamed_report_equals_full_arrays(n, seed, capsys):
    direct, closed = theory.monte_carlo_inequality(n, seed)
    holds, low, mean, gap = cli._fold_inequality(n, seed)
    assert holds == int((direct >= -theory.AGREEMENT_TOL).sum())
    assert low == direct.min()
    assert gap == np.abs(direct - closed).max()
    assert mean == pytest.approx(direct.mean(), rel=1e-12, abs=0)

    witnesses = int((theory.monte_carlo_mixup(n, seed) < 0).sum())
    assert cli.main(["analyze", "--samples", str(n), "--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == f"plain mixing: {witnesses}/{n} random cases got less reliable"
    assert lines[3].startswith(f"clean-labeled mixing: {holds}/{n} cases hold, min difference ")


def test_analyze_memory_does_not_grow_with_samples(capsys):
    # one array of 400k float64 values is 3.2 MB; the report folds each block
    # as it arrives, so only one block's temporaries (about 1.2 MB) are live
    cli.main(["analyze", "--samples", "10"])  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        assert cli.main(["analyze", "--samples", "400000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6e6, f"peak {peak / 1e6:.2f} MB"


def test_analyze_report_contents():
    rc, out = run_cli(["analyze", "--samples", "500", "--seed", "0"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mixing-reliability report"
    assert "difference vs own pseudo-label -0.2" in lines[1]
    worse = int(lines[2].split(":")[1].strip().split("/")[0])
    assert 0 < worse < 500
    assert "500/500 cases hold" in lines[3]


def package_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


def test_installed_entry_point_runs():
    # without an installed omx, run the module the entry point would call
    exe = shutil.which("omx")
    cmd = [exe] if exe else [sys.executable, "-m", "openmix.cli"]
    proc = subprocess.run(
        [*cmd, "analyze", "--samples", "200", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=package_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("mixing-reliability report")


def test_import_loads_no_scipy():
    # scipy is only the tests' oracle for the assignment solver; loading
    # scipy.optimize would add about half a second to every omx command
    code = (
        "import sys, openmix.cli\n"
        "assert 'openmix.metrics' in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
