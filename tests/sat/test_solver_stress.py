"""Stress and robustness tests for the CDCL solver."""

import random

from repro.formula.cnf import CNF
from repro.sampling.xor import add_parity_constraint
from repro.sat.solver import ReferenceSolver, Solver, SAT, UNSAT

from tests.conftest import brute_force_satisfiable, random_cnf


class TestXorChains:
    """Parity formulas exercise long implication chains and learning."""

    def test_consistent_parity_system_sat(self):
        rng = random.Random(3)
        cnf = CNF(num_vars=14)
        # planted solution defines consistent parities
        planted = {v: rng.random() < 0.5 for v in range(1, 15)}
        for _ in range(10):
            chosen = [v for v in range(1, 15) if rng.random() < 0.5]
            parity = sum(planted[v] for v in chosen) % 2 == 1
            add_parity_constraint(cnf, chosen, parity)
        solver = Solver(cnf, rng=1)
        assert solver.solve() == SAT
        # planted assignment satisfies; found model must too
        assert cnf.evaluate(solver.model)

    def test_contradictory_parity_system_unsat(self):
        cnf = CNF(num_vars=6)
        variables = [1, 2, 3, 4, 5, 6]
        add_parity_constraint(cnf, variables, True)
        add_parity_constraint(cnf, variables, False)
        assert Solver(cnf).solve() == UNSAT


class TestIncrementalStress:
    def test_many_assumption_rounds(self):
        rng = random.Random(9)
        cnf = random_cnf(rng, num_vars=10, num_clauses=30)
        solver = Solver(cnf, rng=0)
        baseline = solver.solve()
        for round_no in range(100):
            assumptions = [rng.choice([1, -1]) * rng.randint(1, 10)
                           for _ in range(3)]
            status = solver.solve(assumptions=assumptions)
            assert status in (SAT, UNSAT)
            if status == SAT:
                assert cnf.evaluate(solver.model)
                for a in set(assumptions):
                    if -a not in assumptions:
                        value = solver.model[abs(a)]
                        assert value == (a > 0)
        # the solver still answers the unconditional query correctly
        assert solver.solve() == baseline

    def test_growing_formula(self):
        solver = Solver(CNF(num_vars=8))
        rng = random.Random(4)
        reference = CNF(num_vars=8)
        status = SAT
        for _ in range(60):
            clause = [rng.choice([1, -1]) * rng.randint(1, 8)
                      for _ in range(rng.randint(1, 3))]
            reference.add_clause(clause)
            solver.add_clause(clause)
            status = solver.solve()
            expected = brute_force_satisfiable(reference)
            assert (status == SAT) == expected
            if status == UNSAT:
                break
        # once UNSAT, it must stay UNSAT
        if status == UNSAT:
            solver.add_clause([1])
            assert solver.solve() == UNSAT


class TestWeightedPolarity:
    def _true_fraction(self, weight, rounds=40):
        trues = 0
        for i in range(rounds):
            solver = Solver(CNF(num_vars=1), rng=i,
                            polarity_mode="weighted",
                            polarity_weights={1: weight})
            assert solver.solve() == SAT
            trues += solver.model[1]
        return trues / rounds

    def test_weights_bias_free_variables(self):
        assert self._true_fraction(0.95) > 0.7
        assert self._true_fraction(0.05) < 0.3


class TestLearntClauseManagement:
    def test_reduce_db_does_not_break_correctness(self):
        """Force many conflicts so reduce_db fires, then check result."""
        rng = random.Random(12)
        for trial in range(5):
            cnf = random_cnf(rng, num_vars=9, num_clauses=38)
            expected = brute_force_satisfiable(cnf)
            solver = Solver(cnf, rng=trial)
            # tiny learnt budget: force aggressive reduction
            status = solver.solve()
            assert (status == SAT) == expected

    def _solver_with_learnts(self, seed=3):
        """A solved Python core holding plenty of wide learnt clauses
        (the test reads its internals, so it is pinned to that core)."""
        rng = random.Random(seed)
        for attempt in range(20):
            # uniform 3-SAT near the phase transition: conflict-rich,
            # unlike random_cnf whose unit clauses kill search early
            cnf = CNF(num_vars=30)
            for _ in range(128):
                chosen = rng.sample(range(1, 31), 3)
                cnf.add_clause([v if rng.random() < 0.5 else -v
                                for v in chosen])
            solver = ReferenceSolver(cnf, rng=attempt)._core
            solver.solve()
            if sum(1 for c in solver.learnts if len(c.lits) > 2) >= 6:
                return solver
        raise AssertionError("could not provoke enough learnt clauses")

    def test_reduce_db_sweeps_only_touched_watch_lists(self):
        """The targeted sweep drops removed clauses without rebuilding
        watch lists that never held one."""
        solver = self._solver_with_learnts()
        before = list(solver.watches)
        removable = {id(c) for i, c in enumerate(
                         sorted(solver.learnts, key=lambda c: c.activity))
                     if i < len(solver.learnts) // 2
                     and len(c.lits) > 2
                     and solver.reason[abs(c.lits[0])] is not c}
        touched = set()
        for clause in solver.learnts:
            if id(clause) in removable:
                touched.add(solver._widx(-clause.lits[0]))
                touched.add(solver._widx(-clause.lits[1]))
        assert removable, "reduction should have something to remove"
        solver._reduce_db()
        # removed clauses are gone from every watch list
        surviving = {id(c) for c in solver.clauses}
        surviving |= {id(c) for c in solver.learnts}
        for lists in solver.watches[2:]:
            for clause in lists:
                assert id(clause) in surviving
        # untouched lists were left alone, not rebuilt
        for idx in range(2, len(solver.watches)):
            if idx not in touched:
                assert solver.watches[idx] is before[idx]
        # surviving clauses are still watched exactly where they claim
        for clause in solver.learnts:
            if len(clause.lits) > 1:
                assert clause in solver.watches[solver._widx(-clause.lits[0])]
                assert clause in solver.watches[solver._widx(-clause.lits[1])]
        # and the solver still answers correctly afterwards
        status = solver.solve()
        assert status in (SAT, UNSAT)
        if status == SAT:
            for clause in solver.clauses:
                assert any((l > 0) == solver.model[abs(l)]
                           for l in clause.lits)
