"""Tests for solver clause groups (the incremental-oracle substrate).

A group's clauses constrain the search only while the group is live;
releasing a group retires them permanently.  Selector literals must
never leak into models or cores, and learnt clauses / heuristic state
must survive across ``solve()`` calls.
"""

import random

import pytest

from repro.formula.cnf import CNF
from repro.sat.solver import Solver, SAT, UNSAT
from repro.utils.errors import ReproError


def _random_3sat(num_vars, num_clauses, seed):
    rng = random.Random(seed)
    cnf = CNF(num_vars=num_vars)
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return cnf


class TestGroupActivation:
    def test_group_clauses_constrain_while_live(self):
        solver = Solver()
        solver.add_clause((1, 2))
        group = solver.new_group()
        solver.add_clause((-1,), group=group)
        solver.add_clause((-2,), group=group)
        assert solver.solve() == UNSAT

    def test_release_makes_group_inert(self):
        solver = Solver()
        solver.add_clause((1, 2))
        group = solver.new_group()
        solver.add_clause((-1,), group=group)
        solver.add_clause((-2,), group=group)
        assert solver.solve() == UNSAT
        solver.release_group(group)
        assert solver.solve() == SAT
        assert solver.model[1] or solver.model[2]

    def test_release_is_permanent_and_idempotent(self):
        solver = Solver()
        solver.ensure_vars(2)
        group = solver.new_group()
        solver.add_clause((1,), group=group)
        solver.release_group(group)
        solver.release_group(group)  # no-op
        assert solver.solve(assumptions=[-1]) == SAT
        with pytest.raises(ReproError):
            solver.add_clause((2,), group=group)

    def test_swap_group_verifier_style(self):
        """Release y↔f and re-assert y↔f' — the verifier's round step."""
        solver = Solver()
        solver.add_clause((1, 2, 3))
        group = solver.new_group()
        solver.add_clause((-3,), group=group)    # f: y3 = 0
        assert solver.solve(assumptions=[-1, -2]) == UNSAT
        solver.release_group(group)
        regroup = solver.new_group()
        solver.add_clause((3,), group=regroup)   # f': y3 = 1
        assert solver.solve(assumptions=[-1, -2]) == SAT
        assert solver.model[3] is True

    def test_unknown_group_rejected(self):
        solver = Solver()
        with pytest.raises(ReproError):
            solver.add_clause((1,), group=99)
        with pytest.raises(ReproError):
            solver.release_group(99)

    def test_root_conflicting_group_auto_dies(self):
        """A group whose clauses are root-contradictory forces its own
        selector false; solving then reports UNSAT with an empty core —
        exactly what a fresh solver on the same clauses reports."""
        solver = Solver()
        solver.add_clause((1,))
        group = solver.new_group()
        solver.add_clause((-1,), group=group)  # reduces to unit ¬selector
        assert solver.solve() == UNSAT
        assert solver.core == []


class TestMasking:
    def test_model_hides_selectors(self):
        solver = Solver()
        solver.ensure_vars(2)
        group = solver.new_group()
        solver.add_clause((1, 2), group=group)
        assert solver.solve() == SAT
        assert set(solver.model) == {1, 2}

    def test_selector_collision_rejected(self):
        """Using a variable id that the solver handed to a group as a
        selector is a caller bug; it must fail loudly."""
        solver = Solver()
        group = solver.new_group()  # selector takes var 1
        with pytest.raises(ReproError):
            solver.add_clause((1, 2), group=group)

    def test_core_hides_selectors(self):
        solver = Solver()
        group = solver.new_group()
        solver.add_clause((-3, 4), group=group)
        assert solver.solve(assumptions=[3, -4]) == UNSAT
        assert sorted(solver.core, key=abs) == [3, -4]

    def test_core_empty_when_only_group_blocks(self):
        solver = Solver()
        solver.add_clause((1, 2))
        group = solver.new_group()
        solver.add_clause((-1,), group=group)
        solver.add_clause((-2,), group=group)
        assert solver.solve() == UNSAT
        assert solver.core == []


class TestPersistentState:
    def test_learnt_clauses_survive_across_solves(self):
        cnf = _random_3sat(40, 180, seed=7)
        solver = Solver(cnf, rng=1)
        first = solver.solve()
        learnt_after_first = solver.clause_counts()["learnts"]
        conflicts_first = solver.conflicts
        assert first in (SAT, UNSAT)
        assert learnt_after_first > 0
        second = solver.solve()
        assert second == first
        # The DB was not rebuilt: prior learnts are still there, and the
        # re-solve is (near-)free because its lemmas persist.
        assert solver.clause_counts()["learnts"] >= learnt_after_first
        assert solver.conflicts - conflicts_first <= conflicts_first

    def test_learnts_survive_group_release(self):
        """Releasing a group may not wipe the learnt DB; solving after
        the release stays correct."""
        cnf = _random_3sat(30, 130, seed=3)
        solver = Solver(cnf, rng=2)
        group = solver.new_group()
        solver.add_clause((1,), group=group)
        solver.add_clause((-1, 2), group=group)
        solver.solve()
        learnts = solver.clause_counts()["learnts"]
        solver.release_group(group)
        status = solver.solve(assumptions=[-1])
        assert solver.clause_counts()["learnts"] >= learnts
        if status == SAT:
            assert solver.model[1] is False

    def test_group_semantics_match_fresh_solver(self):
        """Property: solving under live groups ≡ a fresh solver on the
        union of permanent and live-group clauses."""
        rng = random.Random(17)
        for trial in range(15):
            base = _random_3sat(12, rng.randint(10, 28), seed=trial)
            extra = _random_3sat(12, rng.randint(2, 8), seed=100 + trial)
            solver = Solver(base, rng=5)
            group = solver.new_group()
            dropped = solver.new_group()
            for clause in extra.clauses[: len(extra.clauses) // 2]:
                solver.add_clause(clause, group=group)
            for clause in extra.clauses[len(extra.clauses) // 2:]:
                solver.add_clause(clause, group=dropped)
            solver.release_group(dropped)

            reference = base.copy()
            for clause in extra.clauses[: len(extra.clauses) // 2]:
                reference.add_clause(clause)
            assert solver.solve() == Solver(reference, rng=5).solve(), trial
