"""Every demo script runs cleanly in a fresh interpreter and prints the
same whatever the hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")


TWEETY_TRACE = ["-m", "pkb", "--kb", "demos/tweety.pkb", "--trace", "query", "(flies $x)", "--cutoff", "0"]


def _outputs(hash_seed: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
    runs = [[str(demo)] for demo in DEMOS] + [TWEETY_TRACE]
    out = []
    for args in runs:
        result = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0 and result.stdout, (args, result.stderr)
        out.append((result.stdout, result.stderr))
    return out


def test_output_does_not_depend_on_hash_order():
    # Strings hash by the hash seed, and interned symbols and variables
    # by address, so dict and set order can differ between processes;
    # what the demos and a traced query print must not.
    assert _outputs("1") == _outputs("2")
