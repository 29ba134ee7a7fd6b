import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphtransducer

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(graphtransducer.__file__).resolve().parent.parent


# 04 trains a toy model for about 13 s, so only the quick demos run here
@pytest.mark.parametrize(
    "name", ["01_lattices.py", "02_loss_and_gradients.py", "03_beam_search.py"]
)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
