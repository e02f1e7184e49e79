"""Every script in demos/ runs to completion against this package."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    # cwd=tmp_path keeps files a demo writes (03's CSV) out of the checkout
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
