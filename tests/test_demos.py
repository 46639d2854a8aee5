"""The demo scripts and the package doctest run as documented."""

import doctest
import os
import pathlib
import subprocess
import sys

import pytest

import sympair

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(script):
    src = str(pathlib.Path(sympair.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_doctest():
    result = doctest.testmod(sympair)
    assert result.attempted > 0 and result.failed == 0
