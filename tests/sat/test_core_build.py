"""Building and loading the compiled CDCL core, and the fallback.

``repro.sat.solver`` compiles ``_cdcl.c`` on first import.  When that
fails — no compiler, no headers, a broken build — every solver runs on
the Python core instead, after one ``RuntimeWarning`` naming the error,
and the trajectories are the same.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.sat import _native
from repro.sat import solver as sat_solver

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

_BROKEN_BUILD = r"""
import sys, sysconfig, warnings
sysconfig.get_config_vars()["CC"] = "/nonexistent/cc"
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.sat import solver
assert solver.CORE == "python", solver.CORE
assert solver.Solver()._core.__class__ is solver.PythonCore
messages = [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)]
assert len(messages) == 1, messages
assert "/nonexistent/cc" in messages[0], messages
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider",
                      "tests/sat/test_solver_golden.py"]))
"""


def test_failed_build_falls_back_to_the_python_core():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _BROKEN_BUILD], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " passed" in done.stdout  # the golden trajectories, on Python


def test_cached_load_is_fast():
    if sat_solver.CORE != "compiled":
        pytest.skip("the compiled CDCL core did not build")
    started = time.perf_counter()
    module = _native.load()
    assert time.perf_counter() - started < 0.5
    assert module.Core is not None
