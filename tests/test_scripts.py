"""Smoke runs of the experiment scripts at tiny sizes, as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmfusion

REPO = Path(__file__).resolve().parents[1]
SRC = Path(mmfusion.__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_fusion_ablation_reports_every_set():
    proc = run_script("run_fusion_ablation.py", "--n-train", 200, "--n-val", 60,
                      "--max-epochs", 5)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("  fm3: ") and lines[-1].endswith(
        "[vision_linear, text_linear, cross_attn_fcnn]"
    )
    assert sum(" val F1 " in line for line in lines) == 4


@pytest.mark.parametrize("fusion_set", ["fm2", "vision_linear, text_linear"], ids=["named", "listed"])
def test_pseudo_label_reports_best_round(fusion_set):
    proc = run_script("run_pseudo_label.py", "--n-train", 200, "--n-val", 60,
                      "--max-rounds", 2, "--fusion-set", fusion_set)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("best round ") and last.endswith(" pseudo-labels retained")
