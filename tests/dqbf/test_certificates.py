"""Tests for the independent certificate checker."""

import sys

from repro.api import Solver as Synthesizer
from repro.api import Status
from repro.benchgen import generate_planted_instance
from repro.dqbf.certificates import check_henkin_vector, \
    counterexample_to_vector, encode_verification_formula
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.portfolio.runner import evaluate_run
from repro.sat import solver as sat_solver
from repro.sat.solver import Solver, SAT, UNSAT


def xy_instance():
    """∀x1 x2 ∃^{x1}y. (y ↔ x1)."""
    cnf = CNF([[3, -1], [-3, 1]])
    return DQBFInstance([1, 2], {3: [1]}, cnf)


class TestChecker:
    def test_valid_vector_accepted(self):
        inst = xy_instance()
        result = check_henkin_vector(inst, {3: bf.var(1)})
        assert result.valid

    def test_wrong_function_rejected_with_counterexample(self):
        inst = xy_instance()
        result = check_henkin_vector(inst, {3: bf.not_(bf.var(1))})
        assert not result.valid
        assert result.counterexample is not None
        assert set(result.counterexample) == {1, 2}

    def test_dependency_violation_rejected(self):
        inst = xy_instance()
        # x2 ∉ H_y even though the function would be semantically fine
        result = check_henkin_vector(
            inst, {3: bf.or_(bf.var(1), bf.and_(bf.var(2),
                                                bf.not_(bf.var(2))))})
        # simplifier folds x2 away, so craft a genuine violation:
        result = check_henkin_vector(inst, {3: bf.xor(bf.var(1),
                                                      bf.var(2))})
        assert not result.valid
        assert "dependency" in result.reason

    def test_missing_function_rejected(self):
        inst = xy_instance()
        result = check_henkin_vector(inst, {})
        assert not result.valid
        assert "missing" in result.reason

    def test_constant_functions(self):
        cnf = CNF([[2, 1]])  # x ∨ y
        inst = DQBFInstance([1], {2: []}, cnf)
        assert not check_henkin_vector(inst, {2: bf.FALSE}).valid
        assert check_henkin_vector(inst, {2: bf.TRUE}).valid

    def test_bool_conversion(self):
        inst = xy_instance()
        assert bool(check_henkin_vector(inst, {3: bf.var(1)}))


class TestEncodeVerification:
    def test_formula_sat_iff_functions_wrong(self):
        inst = xy_instance()
        cnf, _ = encode_verification_formula(inst, {3: bf.var(1)})
        assert Solver(cnf).solve() != SAT
        cnf2, _ = encode_verification_formula(inst, {3: bf.TRUE})
        assert Solver(cnf2).solve() == SAT


class TestCounterexampleExpansion:
    def test_components(self):
        inst = xy_instance()
        functions = {3: bf.TRUE}
        cnf, _ = encode_verification_formula(inst, functions)
        solver = Solver(cnf)
        assert solver.solve() == SAT
        x_assign, y_prime = counterexample_to_vector(inst, functions,
                                                     solver.model)
        assert set(x_assign) == {1, 2}
        assert y_prime == {3: True}
        assert x_assign[1] is False  # y=1 only violates ϕ when x1=0


class _LyingCore:
    """The engines' core with a soundness defect: from the first SAT
    answer it gives the verifier (a counterexample to the candidate
    vector) on, every SAT answer is reported as UNSAT.  The engine then
    claims a wrong vector valid, and a certifier solving on this core
    would agree with it."""

    lies = 0

    def __init__(self, *args):
        self._inner = self.inner_factory(*args)

    def solve(self, assumptions, conflict_budget, deadline):
        status = self._inner.solve(assumptions, conflict_budget, deadline)
        if status == SAT and (_LyingCore.lies or any(
                frame.f_code.co_name == "verify_candidates"
                for frame in _callers())):
            _LyingCore.lies += 1
            return UNSAT
        return status

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        if name == "_inner":
            object.__setattr__(self, name, value)
        else:
            setattr(self._inner, name, value)


def _callers():
    frame = sys._getframe(2)
    while frame is not None:
        yield frame
        frame = frame.f_back


class TestIndependentOfEngineCore:
    def test_a_lying_engine_core_never_certifies(self, monkeypatch):
        """Certification runs on the Python core, not on the core the
        engine used: a flipped answer surfaces as an INVALID record."""
        instance = generate_planted_instance(
            num_universals=12, num_existentials=4, dep_width=10,
            region_width=3, rules_per_y=6, seed=7)
        monkeypatch.setattr(_LyingCore, "inner_factory",
                            staticmethod(sat_solver._make_core),
                            raising=False)
        monkeypatch.setattr(_LyingCore, "lies", 0)
        monkeypatch.setattr(sat_solver, "_make_core", _LyingCore)
        result = Synthesizer("manthan3", seed=0).solve(instance).result
        assert _LyingCore.lies >= 1
        assert result.status == Status.SYNTHESIZED  # the wrong claim
        record = evaluate_run("manthan3", instance, result)
        assert record.certified is False
        assert record.status == Status.INVALID
