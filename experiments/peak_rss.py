"""Print the time and memory of each omx command, run in one process.

In a temp dir this runs gen-data -> pretrain -> cluster -> eval -> analyze
through `cli.main`, as one Python process, on SplitSpec(per_class=N, seed)
with one pretrain and one clustering epoch. After each command it prints
one line: the command, its seconds, the process's peak resident set so far
(`ru_maxrss`) and its current one (`VmRSS` in /proc/self/status, "-" where
that file is missing), both in MB. A command that exits non-zero stops the
run with that exit code.

    PYTHONPATH=src python3 experiments/peak_rss.py [--per-class 5000] [--samples 1000000]

The defaults are the benchmark's cli-io workload: a 50k-row split and a
million analyze cases. The peak is a high-water mark, so a command whose
line shows no rise in it allocated no more than the commands before it.
BLAS threading is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from openmix import cli  # noqa: E402


def current_rss_mb() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return f"{int(line.split()[1]) / 1024:.1f}"
    return "-"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-class", type=int, default=5000)
    parser.add_argument("--samples", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        data_dir, out_dir = os.path.join(tmp, "data"), os.path.join(tmp, "out")
        spec, cfg = os.path.join(tmp, "blobs.spec"), os.path.join(tmp, "run.cfg")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(f"per_class = {args.per_class}\nseed = {args.seed}\n")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(
                f"seed = {args.seed}\npretrain_epochs = 1\ncluster_epochs = 1\n"
                f"data_dir = {data_dir}\nout_dir = {out_dir}\n"
            )
        commands = [
            ["gen-data", "--spec", spec, "--out", data_dir],
            ["pretrain", "--config", cfg],
            ["cluster", "--config", cfg, "--checkpoint", os.path.join(out_dir, cli.PRETRAIN_FILE)],
            ["eval", "--checkpoint", os.path.join(out_dir, cli.MODEL_FILE), "--data", data_dir],
            ["analyze", "--samples", str(args.samples), "--seed", str(args.seed)],
        ]
        for argv in commands:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            seconds = time.perf_counter() - t0
            if code != 0:
                print(f"omx {argv[0]} exited {code}")
                return code
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"{argv[0]:<9} {seconds:7.3f} s  peak {peak:6.1f} MB  now {current_rss_mb():>6} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
