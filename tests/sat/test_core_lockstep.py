"""Engine-level lockstep: the compiled CDCL core against the Python core.

Both cores must be *trajectory-exact*: the same decisions, learnt
clauses, models, cores and counters for the same calls.  Golden solver
scripts (``test_solver_golden.py``) pin that on synthetic call
sequences; this test pins it on the call sequences the synthesis engine
really makes.  Every :class:`repro.sat.solver.Solver` built during a
manthan3 run gets a :class:`LockstepCore`, which forwards each call to a
compiled core and to a :class:`~repro.sat.solver.PythonCore` side by side
and asserts after each call that everything observable is identical:
return value (or raised exception), ``ok``, ``num_vars``, ``model``
(including its key order), ``core``, ``stats()``, ``clause_counts()``,
the number of ``deadline.expired()`` calls and ``rng.getstate()``.

The same run checks the small suite against its committed golden
engine trajectories (``tests/core/golden_engine_trajectories.json``,
see ``tests/core/test_engine_golden.py``), so pinning the suite costs
no extra solves.
"""

import copy
import random

import pytest

from repro.api import Solver as Synthesizer
from repro.api import Status
from repro.benchgen import build_suite, generate_planted_instance
from repro.sat import solver as sat_solver

from tests.core.test_engine_golden import golden, record, small_suite_keys

pytestmark = pytest.mark.skipif(
    sat_solver.CORE != "compiled",
    reason="the compiled CDCL core did not build (see the RuntimeWarning "
           "from repro.sat.solver); there is nothing to compare")

#: A planted shape small enough for the Python core, large enough for
#: restarts, learnt-clause reduction and many repair iterations.
REDUCED_PLANTED = dict(num_universals=20, num_existentials=6, dep_width=16,
                       region_width=4, rules_per_y=8, seed=200)


class _CountingDeadline:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def expired(self):
        self.calls += 1
        return self.inner.expired()


def _twin(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def _observe(core):
    model = core.model
    return {
        "ok": core.ok,
        "num_vars": core.num_vars,
        "model": None if model is None else list(model.items()),
        "core": core.core,
        "stats": core.stats(),
        "clause_counts": core.clause_counts(),
        "rng": core.rng.getstate(),
    }


class LockstepCore:
    """A core that runs a compiled and a Python core side by side."""

    calls = 0  # checked calls, across all instances

    def __init__(self, rng, polarity_mode, random_var_freq, default_phase,
                 polarity_weights):
        self.compiled = COMPILED(_twin(rng), polarity_mode, random_var_freq,
                                 default_phase, polarity_weights)
        self.python = sat_solver.PythonCore(rng, polarity_mode,
                                            random_var_freq, default_phase,
                                            polarity_weights)
        self._check("__init__", ("ok", None), ("ok", None))

    def _check(self, name, compiled, python):
        LockstepCore.calls += 1
        assert compiled == python, "%s returned differently: %r vs %r" % (
            name, compiled, python)
        left, right = _observe(self.compiled), _observe(self.python)
        for key in left:
            assert left[key] == right[key], \
                "after %s, %s differs between the cores" % (name, key)

    def _call(self, name, *args, deadlines=None):
        outcomes, raised = [], None
        for i, core in enumerate((self.compiled, self.python)):
            call_args = args if deadlines is None else args + (deadlines[i],)
            try:
                outcomes.append(("ok", getattr(core, name)(*call_args)))
            except Exception as exc:  # compared, then re-raised
                outcomes.append(("raise", type(exc), str(exc)))
                raised = exc
        if deadlines is not None and deadlines[0] is not None:
            assert deadlines[0].calls == deadlines[1].calls, \
                "%s checked the deadline a different number of times" % name
        self._check(name, *outcomes)
        if raised is not None:
            raise raised
        return outcomes[1][1]

    def ensure_vars(self, n):
        return self._call("ensure_vars", n)

    def reserve_var(self):
        return self._call("reserve_var")

    def new_group(self):
        return self._call("new_group")

    def release_group(self, group):
        return self._call("release_group", group)

    def add_clause(self, lits, group):
        return self._call("add_clause", list(lits), group)

    def solve(self, assumptions, conflict_budget, deadline):
        # each core gets its own copy, so a stateful deadline cannot
        # answer the two differently
        deadlines = (None, None) if deadline is None else (
            _CountingDeadline(copy.copy(deadline)),
            _CountingDeadline(copy.copy(deadline)))
        return self._call("solve", list(assumptions), conflict_budget,
                          deadlines=deadlines)

    def stats(self):
        return self.python.stats()

    def clause_counts(self):
        return self.python.clause_counts()

    def __getattr__(self, name):  # ok, model, core, counters
        return getattr(self.python, name)

    def __setattr__(self, name, value):
        if name in ("compiled", "python"):
            object.__setattr__(self, name, value)
        elif name == "rng":
            self.compiled.rng = _twin(value)
            self.python.rng = value
        else:  # the other knobs: same object for both
            setattr(self.compiled, name, value)
            setattr(self.python, name, value)


COMPILED = sat_solver._make_core


def test_manthan3_runs_identically_on_both_cores(monkeypatch):
    monkeypatch.setattr(sat_solver, "_make_core", LockstepCore)
    instances = build_suite("small", 0)
    instances.append(generate_planted_instance(**REDUCED_PLANTED))
    before = LockstepCore.calls
    statuses = []
    keys = small_suite_keys()
    for instance in instances:
        solution = Synthesizer("manthan3", seed=0).solve(instance)
        statuses.append(solution.status)
        if instance.name in keys:
            assert record(solution) == golden()[keys[instance.name]], \
                instance.name
    # the run exercised the cores, and decided most instances
    assert LockstepCore.calls - before > 10_000
    decided = sum(s in (Status.SYNTHESIZED, Status.FALSE) for s in statuses)
    assert decided >= len(instances) // 2
