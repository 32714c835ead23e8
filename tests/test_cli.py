"""End-to-end checks of the omx command line, driven in process via main()."""

import contextlib
import io
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from openmix import cli, theory, train
from openmix.checkpoint import load_checkpoint, save_checkpoint
from openmix.data import Dataset, generate_blobs, load_dataset, save_dataset
from helpers import dataset_bytes, tiny_spec

SPEC_TEXT = """\
c_l = 2
c_u = 3
per_class = 8
input_dim = 6
separation = 6.0
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


def configured(*settings, **fields):
    """pretrain under write_config(tmp, **fields), then each setting as a --set."""
    sets = [arg for setting in settings for arg in ("--set", setting)]
    return lambda p, tmp: ["pretrain", "--config", str(write_config(tmp, **fields)), *sets]


def override(command, setting):
    """pretrain or cluster on the pipeline's files, then --set setting and out_dir in tmp."""

    def argv(p, tmp):
        ckpt = ["--checkpoint", str(p.root / "out" / cli.PRETRAIN_FILE)]
        sets = ["--set", setting, "--set", f"out_dir={tmp}/out"]
        return [command, "--config", str(p.cfg), *(ckpt if command == "cluster" else []), *sets]

    return argv


def written(path, blob) -> str:
    """path, as a string, once it holds blob."""
    path.write_bytes(blob)
    return str(path)


def config_file(blob):
    return lambda p, tmp: ["pretrain", "--config", written(tmp / "run.cfg", blob)]


def spec_file(blob):
    return lambda p, tmp: ["gen-data", "--spec", written(tmp / "s.spec", blob), "--out", f"{tmp}/d"]


def eval_argv(p, data_dir, ckpt=None):
    """eval of ckpt, by default the pipeline's clustered model, on data_dir."""
    ckpt = ckpt or p.root / "out" / cli.MODEL_FILE
    return ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]


def data_file(content, command="pretrain"):
    """pretrain, or eval of the pipeline's model, on tmp/data holding content as its dataset:
    bytes, a Dataset that save_dataset writes, or None for no file."""

    def argv(p, tmp):
        (tmp / "data").mkdir()
        if isinstance(content, Dataset):
            save_dataset(str(tmp / "data" / cli.DATASET_FILE), content)
        elif content is not None:
            written(tmp / "data" / cli.DATASET_FILE, content)
        if command == "eval":
            return eval_argv(p, tmp / "data")
        return ["pretrain", "--config", str(write_config(tmp))]

    return argv


def nan_bias(p, tmp):
    """eval of the pipeline's model with nan as its last new-head bias."""
    blob = (p.root / "out" / cli.MODEL_FILE).read_bytes()[:-8] + struct.pack("<d", float("nan"))
    return eval_argv(p, p.root / "data", written(tmp / "nan.omx", blob))


def huge_weights(p, tmp):
    # finite weights whose logits overflow: eval must not score them
    model = load_checkpoint(str(p.root / "out" / cli.MODEL_FILE))
    for layer in (*model.backbone, model.new_head):
        layer.w *= 1e200
    save_checkpoint(str(tmp / "big.omx"), model)
    return eval_argv(p, p.root / "data", tmp / "big.omx")


WIDTHS = "feature_dim and hidden_dims must be in [1, 4096]"
MOMENTS = "RMSprop second moments became non-finite at epoch 2"
NO_FILE = "[Errno 2] No such file or directory: "
DATA = "{tmp}/data/dataset.bin: "
NO_ROWS = DATA + "need at least 1 L row and 2 U rows, found 0 and "

# The refused inputs, each (argv builder, message) in the table of its exit code. A
# builder takes the pipeline and tmp_path, writes its input files there, and points
# every path the command might write there too; {tmp} in a message stands for tmp_path.
BAD_CONFIG = {
    "bad override key": (override("pretrain", "nope=1"), "override: unknown key 'nope'"),
    "invalid config value": (configured(theta1=2.0), "theta1 must be in (0, 1)"),
    "huge spec": (
        spec_file(SPEC_TEXT.encode().replace(b"per_class = 8", b"per_class = 1000000000000")),
        f"(c_l + c_u) * per_class * input_dim must be <= {2**24}",
    ),
    # small enough for the split-size cap, too wide for the first layer
    "wide spec": (
        spec_file(b"c_l = 1\nc_u = 2\nper_class = 1\ninput_dim = 1500000\n"),
        "input_dim must be <= 4096",
    ),
    "non-finite override": (override("pretrain", "lr=nan"), "lr must be finite, got nan"),
    "missing config file": (
        lambda p, tmp: ["pretrain", "--config", f"{tmp}/absent.cfg"],
        "cannot read config {tmp}/absent.cfg: " + NO_FILE + "'{tmp}/absent.cfg'",
    ),
    # a spec key that never was
    "not_a_knob": (spec_file(b"c_l = 2\nnot_a_knob = 9\n"), "line 2: unknown key 'not_a_knob'"),
    # sigma was a spec key until the blobs were fixed at unit variance
    "sigma": (spec_file(b"c_l = 2\nsigma = 1.0\n"), "line 2: unknown key 'sigma'"),
    "non-UTF-8 config": (
        config_file(b"seed = 0\n# caf\xe9\n"),
        "config {tmp}/run.cfg is not UTF-8 text: "
        "'utf-8' codec can't decode byte 0xe9 in position 14: invalid continuation byte",
    ),
    "non-UTF-8 spec": (
        spec_file(SPEC_TEXT.encode() + b"# \x80\n"),
        "split spec {tmp}/s.spec is not UTF-8 text: "
        "'utf-8' codec can't decode byte 0x80 in position 72: invalid start byte",
    ),
}
DIVERGING = {
    "divergence": (
        override("pretrain", "lr=1e200"), "labeled-batch logits became non-finite at epoch 1"
    ),
    # squared mixing gradients overflow the RMSprop moments to inf, whose
    # parameters would then take g / inf = 0 updates and silently stop
    "overflowing second moments": (override("cluster", "lambda2=1e160"), MOMENTS),
    "eval overflowing logits": (huge_weights, "unlabeled-pool logits became non-finite"),
}
BAD_FILES = {
    "missing dataset": (data_file(None), NO_FILE + "'{tmp}/data/dataset.bin'"),
    # a dataset in the old text format, under the binary file's name
    "text dataset": (
        data_file(b"omx-dataset,v1,6,2,3\nL,0,1.0,2.0,3.0,4.0,5.0,6.0\n"),
        DATA + "bad magic bytes, not a dataset",
    ),
    "no labeled rows": (
        data_file(dataset_bytes(input_dim=6, n_l=0, n_u=24, y_u=[0, 1, 2] * 8)), NO_ROWS + "24"
    ),
    "header-only dataset": (
        data_file(dataset_bytes(input_dim=6, n_l=0, n_u=0), "eval"), NO_ROWS + "0"
    ),
    # the largest int64 as a labeled class of a 2-class side
    "class index out of range": (
        data_file(dataset_bytes(y_l=2**63 - 1)), DATA + "labeled class index outside [0, 2)"
    ),
    # every row is valid; the header's class count or input_dim alone is beyond the cap
    "huge class count": (
        data_file(dataset_bytes(c_l=2**32 - 1)),
        DATA + "class counts must be in [1, 4096], got 4294967295 and 3",
    ),
    "wide dataset": (
        data_file(dataset_bytes(input_dim=4097)), DATA + "input_dim must be in [1, 4096], got 4097"
    ),
    "geometry mismatch": (
        data_file(generate_blobs(tiny_spec(input_dim=7)), "eval"),
        "checkpoint input_dim 6 != dataset 7",
    ),
    "new class count mismatch": (
        data_file(generate_blobs(tiny_spec(c_u=4)), "eval"), "checkpoint C_u 3 != dataset 4"
    ),
    "non-finite checkpoint": (nan_bias, "{tmp}/nan.omx: non-finite parameter"),
}
CONFIG, DIVERGED, IO = "config error: ", "divergence: ", "i/o error: "
FAILURES = {
    case: (build, code, kind + message)
    for code, kind, rows in [(2, CONFIG, BAD_CONFIG), (3, DIVERGED, DIVERGING), (4, IO, BAD_FILES)]
    for case, (build, message) in rows.items()
}


# model widths and batch sizes past their caps, each a --set on write_config(tmp)
HUGE_WIDTHS = {
    "feature_dim=1000000000000": WIDTHS,
    "hidden_dims=100000000000": WIDTHS,
    "batch_mixed=1000000000000": "batch_mixed must be <= 4096",
    "batch_unlabeled=1000000000000": "batch_unlabeled must be <= 2048",
}
# config keys that were removed, each with a value it once took
REMOVED_KEYS = {
    "opm_softmax": "joint", "anchor_labels": "onehot", "rmsprop_rho": "0.9", "rmsprop_eps": "1e-8"
}


def assert_refused(row, pipeline, tmp_path, capsys):
    """Run row's argv in process: its exit code, its one stderr line, no stdout, nothing made."""
    build, code, line = row
    argv = build(pipeline, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == code
    assert capsys.readouterr() == ("", line.format(tmp=tmp_path) + "\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("case", list(FAILURES))
def test_refused_input_exits_with_one_stderr_line(case, pipeline, tmp_path, capsys):
    assert_refused(FAILURES[case], pipeline, tmp_path, capsys)


@pytest.mark.parametrize("setting", list(HUGE_WIDTHS))
def test_huge_model_width_exits_2(setting, pipeline, tmp_path, capsys):
    row = (configured(setting), 2, CONFIG + HUGE_WIDTHS[setting])
    assert_refused(row, pipeline, tmp_path, capsys)


@pytest.mark.parametrize("key,value", list(REMOVED_KEYS.items()))
def test_removed_config_key_exits_2(key, value, pipeline, tmp_path, capsys):
    row = (config_file(f"{key} = {value}\n".encode()), 2, CONFIG + f"line 1: unknown key '{key}'")
    assert_refused(row, pipeline, tmp_path, capsys)


def endless_dataset(p, tmp):
    (tmp / cli.DATASET_FILE).symlink_to("/dev/zero")
    return eval_argv(p, tmp)


# The same contract in a fresh interpreter, under a 1 GiB address-space limit. It has
# numpy's default warning setting, so an overflow on the way to a divergence must print
# no RuntimeWarning; and an endless stream must be refused before it fills memory.
FRESH_FAILURES = {
    "divergence": (override("cluster", "lambda2=1e160"), 3, DIVERGED + MOMENTS),
    "endless checkpoint": (
        lambda p, tmp: eval_argv(p, p.root / "data", "/dev/zero"),
        4,
        IO + "/dev/zero: bad magic bytes, not a checkpoint",
    ),
    "endless dataset": (
        endless_dataset, 4, IO + "{tmp}/dataset.bin: bad magic bytes, not a dataset"
    ),
}
# an endless config or split spec, each refused at the text reader's size cap
ENDLESS_CONFIGS = {
    "config": (
        lambda p, tmp: ["pretrain", "--config", "/dev/zero"],
        2,
        CONFIG + f"config /dev/zero is larger than {2**20} bytes",
    ),
    "spec": (
        lambda p, tmp: ["gen-data", "--out", "unused", "--spec", "/dev/zero"],
        2,
        CONFIG + f"split spec /dev/zero is larger than {2**20} bytes",
    ),
}


def assert_refused_fresh(row, pipeline, tmp_path):
    """assert_refused for python -m openmix.cli, run in tmp_path with one BLAS thread."""
    resource = pytest.importorskip("resource")
    build, code, line = row
    argv = build(pipeline, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-m", "openmix.cli", *argv], capture_output=True, text=True, timeout=120,
        cwd=tmp_path, env={**package_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    expected = (code, "", line.format(tmp=tmp_path) + "\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("case", list(FRESH_FAILURES))
def test_refused_input_in_a_fresh_interpreter(case, pipeline, tmp_path):
    assert_refused_fresh(FRESH_FAILURES[case], pipeline, tmp_path)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("what", list(ENDLESS_CONFIGS))
def test_endless_config_exits_2(what, pipeline, tmp_path):
    assert_refused_fresh(ENDLESS_CONFIGS[what], pipeline, tmp_path)


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
