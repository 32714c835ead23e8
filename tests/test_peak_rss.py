"""experiments/peak_rss.py runs the five omx commands and prints one line for each."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "experiments" / "peak_rss.py"


def test_prints_one_line_per_command():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    # 4000 rows make a 1.3 MB file, so each load reads it in two chunks
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--per-class", "400", "--samples", "1000"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["gen-data", "pretrain", "cluster", "eval", "analyze"]
    for line in lines:
        _, seconds, s, peak_word, peak, mb, now_word, now, mb2 = line.split()
        assert float(seconds) >= 0 and float(peak) > 0 and float(now) > 0
        assert (s, peak_word, mb, now_word, mb2) == ("s", "peak", "MB", "now", "MB")
