"""Spans around the public functions of every openmix module.

The tracer wraps functions by module and name at run time; nothing under
src/ knows about it. A wrapped call becomes a span: its self time is its
duration minus the time its child spans cover. Spans are aggregated by name
in memory (calls, self time, total time, rows) and read out once the run
ends. A function that a later refactor removes or renames is listed as
absent and reads as zero; it does not fail the run.

Importing this module imports nothing from openmix or numpy, so the
benchmark's parent process can list metric names without loading the
package.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (module, attribute, reports rows). The attribute may be "Class.method".
# Rows come only from the shape of the first array argument, never from
# what a function returns, so changed return types keep working.
LAYERS = [
    ("nn", "forward", True),
    ("nn", "backward", True),
    ("nn", "softmax", True),
    ("nn", "add_scaled_", False),
    ("losses", "similarity_matrix", True),
    ("losses", "pair_labels", True),
    ("losses", "ppl_loss", True),
    ("losses", "pseudo_labels", True),
    ("losses", "pll_loss", True),
    ("losses", "cross_entropy", True),
    ("mixing", "build_mixed_batch", False),
    ("mixing", "opm_loss", True),
    ("mixing", "select_anchors", True),
    ("optim", "RmspropState.step", False),
    ("metrics", "acc", False),
    ("metrics", "nmi", False),
    ("metrics", "contingency", False),
    ("metrics", "assignment_solver", False),
    ("train", "pretrain", False),
    ("train", "cluster_train", False),
    ("train", "evaluate", False),
    ("train", "write_metrics_csv", False),
    ("data", "generate_blobs", False),
    ("data", "save_dataset", False),
    ("data", "load_dataset", False),
    ("data", "load_split_spec", False),
    ("checkpoint", "save_checkpoint", False),
    ("checkpoint", "load_checkpoint", False),
    ("config", "load_run_config", False),
    ("theory", "monte_carlo_inequality", False),
    ("theory", "monte_carlo_mixup", False),
]

# Only the trainer calls nn.softmax through the module; losses and mixing
# hold their own `from .nn import softmax` binding, which stays unwrapped so
# their softmax time counts as their own self time.
HOME_ONLY = {"nn.softmax"}

# nn.forward is reported as two spans: batches of at most batch_unlabeled
# rows, and larger ones (pool refreshes, mixed-step pool forwards, evaluation)
FORWARD = "nn.forward"

# files whose size a wrapped call adds to a byte counter
BYTE_COUNTERS = {
    "data.save_dataset": "data.bytes",
    "data.load_dataset": "data.bytes",
    "checkpoint.save_checkpoint": "checkpoint.bytes",
    "checkpoint.load_checkpoint": "checkpoint.bytes",
}

CLI_COMMANDS = ("gen-data", "pretrain", "cluster", "eval", "analyze")


def span_names() -> list[tuple[str, bool]]:
    """Every span name the tracer can record, with whether it reports rows."""
    out = []
    for module, attr, rows in LAYERS:
        name = f"{module}.{attr}"
        if name == FORWARD:
            out += [(name + ".small", rows), (name + ".big", rows)]
        else:
            out.append((name, rows))
    return out


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, rows in span_names():
        out += [(name + ".calls", "count", "lower"), (name + ".self_s", "s", "lower")]
        if rows:
            out.append((name + ".rows", "rows", "lower"))
    out += [
        ("nn.forward.gflop", "GFLOP", "lower"),
        ("mixing.anchor_frac", "frac", "higher"),
        ("data.bytes", "B", "lower"),
        ("checkpoint.bytes", "B", "lower"),
    ]
    out += [(f"cli.{cmd}.s", "s", "lower") for cmd in CLI_COMMANDS]
    out.append(("trace_overhead_frac", "frac", "lower"))
    return out


def _rows(args) -> int:
    for a in args:
        shape = getattr(a, "shape", None)
        if shape:
            return int(shape[0])
    return 0


def _file_size(args) -> int:
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            return os.path.getsize(a) if os.path.isfile(a) else 0
    return 0


class Tracer:
    """Span recorder that patches the package in place while installed.

    big_rows is the forward-batch size above which a forward counts as big;
    macs_per_row is the multiply-add count of one forward row, from the
    model's layer shapes.
    """

    def __init__(self, big_rows: int, macs_per_row: int) -> None:
        self.big_rows = big_rows
        self.macs_per_row = macs_per_row
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, rows]
        self.counters = {"nn.forward.gflop": 0.0, "data.bytes": 0, "checkpoint.bytes": 0}
        self.top_s = 0.0  # total duration of spans with no parent
        self.absent: list[str] = []
        self._open: list[float] = []  # child time covered, one entry per open span
        self._patched: list[tuple[object, str, object]] = []

    def open(self) -> float:
        self._open.append(0.0)
        return time.perf_counter()

    def close(self, name: str, t0: float, rows: int = 0) -> None:
        duration = time.perf_counter() - t0
        child = self._open.pop()
        if self._open:
            self._open[-1] += duration
        else:
            self.top_s += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += duration - child
        st[2] += duration
        st[3] += rows

    def _wrap(self, name: str, fn):
        counter = BYTE_COUNTERS.get(name)
        forward = name == FORWARD

        def wrapper(*args, **kwargs):
            rows = _rows(args)
            span = name
            if forward:
                span += ".big" if rows > self.big_rows else ".small"
            t0 = self.open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span, t0, rows)
            if forward:
                self.counters["nn.forward.gflop"] += 2e-9 * rows * self.macs_per_row
            if counter:
                self.counters[counter] += _file_size(args)
            return out

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every LAYERS function and every `from ... import` copy of it."""
        for module, attr, _ in LAYERS:
            name = f"{module}.{attr}"
            try:
                owner = importlib.import_module(f"openmix.{module}")
            except ModuleNotFoundError:
                self.absent.append(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, leaf, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, orig)
            self._patch(owner, leaf, wrapped)
            if path or name in HOME_ONLY:
                continue
            for modname, mod in list(sys.modules.items()):
                if mod is None or not (modname == "openmix" or modname.startswith("openmix.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict[str, float]:
        """Calls, self time and rows of every span name; zeros if never called."""
        out: dict[str, float] = {}
        for name, rows in span_names():
            calls, self_s, _, n_rows = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            if rows:
                out[name + ".rows"] = n_rows
        out.update(self.counters)
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = self.stats.get(f"cli.{cmd}", (0, 0.0, 0.0, 0))[2]
        return out
