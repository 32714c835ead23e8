"""experiments/step_phases.py times the real trainer and leaves it as it found it."""

import importlib.util
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from openmix import mixing, train

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "experiments" / "step_phases.py"

# every section the tool prints, with its phase lines in order
SECTIONS = {
    "pretrain step": [
        "forward", "loss (cross-entropy)", "backward", "optimizer step",
        "trainer's own", "whole step",
    ],
    "mixed clustering step": [
        "mixed-batch build", "forward", "loss (PPL+PLL)", "backward", "mixed labels",
        "loss (OPM)", "backward, call 2", "optimizer step", "trainer's own", "whole step",
    ],
    "between clustering epochs": ["anchor refresh", "pool scoring", "evaluation"],
}


def load_tool(monkeypatch):
    # loading the tool pins BLAS threads in os.environ; monkeypatch undoes it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("step_phases", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def current(tool) -> list:
    return [getattr(owner, attr) for owner, attr, _ in tool.WRAPPED]


def test_prints_every_phase():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "40"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    printed: dict[str, list[str]] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("  "):
            phase, value = line.strip().rsplit(maxsplit=1)
            assert math.isfinite(float(value)) and float(value) >= 0.0, line
            printed[title].append(phase)
        else:
            title = line.split(":")[0]
            printed[title] = []
    assert printed == SECTIONS


def test_a_callee_that_records_no_call_is_named(monkeypatch):
    tool = load_tool(monkeypatch)
    originals = current(tool)
    # the trainer reaches mixing through a copy, as after a rename: no
    # wrapper sees those calls, which must not read as zero time
    monkeypatch.setattr(train, "mixing", types.SimpleNamespace(**vars(mixing)))
    with pytest.raises(SystemExit) as exc:
        tool.main(["--repeats", "1"])
    message = exc.value.code
    assert isinstance(message, str)  # exit status 1
    for name in ("build_mixed_batch", "mixed_labels", "opm_loss", "select_anchors"):
        assert f"mixing.{name}" in message
    assert "nn.forward" not in message
    assert all(a is b for a, b in zip(current(tool), originals))


def test_wrapped_attributes_restored_when_the_trainer_raises(monkeypatch):
    tool = load_tool(monkeypatch)
    originals = current(tool)
    inside = []

    def failing_pretrain(*args):
        inside.extend(current(tool))
        raise RuntimeError("stop")

    monkeypatch.setattr(train, "pretrain", failing_pretrain)
    with pytest.raises(RuntimeError, match="stop"):
        tool.main(["--repeats", "1"])
    assert not any(a is b for a, b in zip(inside, originals))
    assert all(a is b for a, b in zip(current(tool), originals))
