"""The solver suites once more, on the Python core.

Their own modules run on the core ``repro.sat.solver`` selected at
import: the compiled core when it built.  This module collects the same
tests again with :class:`~repro.sat.solver.PythonCore` swapped in
through the module-level core factory, so both cores face every solver
test, including the committed golden trajectories.
"""

import pytest

from repro.sat import solver as sat_solver

# Collected again here, under this module's autouse fixture.
from tests.sat.test_backend_differential import *  # noqa: F401,F403
from tests.sat.test_groups import *  # noqa: F401,F403
from tests.sat.test_solver import *  # noqa: F401,F403
from tests.sat.test_solver_edges import *  # noqa: F401,F403
from tests.sat.test_solver_golden import *  # noqa: F401,F403

pytestmark = pytest.mark.skipif(
    sat_solver.CORE == "python",
    reason="the compiled core did not build, so the suites' own modules "
           "already run on the Python core")


@pytest.fixture(autouse=True)
def _python_core(monkeypatch):
    monkeypatch.setattr(sat_solver, "_make_core", sat_solver.PythonCore)


def test_the_python_core_is_active():
    assert type(sat_solver.Solver()._core) is sat_solver.PythonCore
