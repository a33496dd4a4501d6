"""Each entry module imports cleanly first, in a fresh interpreter.

``repro.topology`` and ``repro.scenarios`` import each other; a module
that pulls a name out of a partially initialised one turns that into an
``ImportError`` that only shows when the wrong module is imported first.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["repro.topology", "repro.scenarios"])
def test_imports_first_in_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_fault_matrix_submodule_not_shadowed():
    """The package exposes the ``fault_matrix`` submodule, not a
    same-named builder function that would hide it."""
    from repro.scenarios import fault_matrix as fm

    assert callable(fm.run_fault_matrix)
