"""Tests for the incremental oracle sessions.

The engine's trajectories on the sessions are pinned by the golden
engine trajectories (``test_engine_golden.py``); these tests check the
sessions' own contracts: verdicts, selective re-encoding, unate checks
and the dual rail's retirement.
"""

import pytest

from repro.core import Manthan3Config
from repro.core.preprocess import detect_unates
from repro.core.repair import repair_iteration
from repro.core.sessions import MatrixSession, VerifierSession
from repro.core.verifier import verify_candidates
from repro.core.candidates import DependencyTracker
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.bitvec import SampleMatrix
from repro.formula.cnf import CNF
from repro.sat.solver import SAT, UNSAT


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


class TestVerifierSession:
    def test_verdicts_match_fresh_path(self):
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        session = VerifierSession(inst)
        matrix = MatrixSession(inst.matrix)
        for candidate, verdict in ((bf.var(1), "VALID"),
                                   (bf.not_(bf.var(1)), "COUNTEREXAMPLE"),
                                   (bf.var(1), "VALID")):
            fresh = verify_candidates(inst, {2: candidate})
            live = verify_candidates(inst, {2: candidate},
                                     session=session, matrix_session=matrix)
            assert fresh.verdict == live.verdict == verdict

    def test_only_changed_candidates_reencode(self):
        inst = make([1, 2], {3: [1], 4: [2]},
                    [[-3, 1], [3, -1], [-4, 2], [4, -2]])
        session = VerifierSession(inst)
        session.sync({3: bf.var(1), 4: bf.var(2)})
        released_before = session.groups_released
        # Repair only y3; y4's group must survive untouched.
        session.sync({3: bf.not_(bf.var(1)), 4: bf.var(2)})
        assert session.groups_released == released_before + 1

    def test_false_verdict_through_sessions(self):
        inst = make([1], {2: [1]}, [[1]])
        session = VerifierSession(inst)
        matrix = MatrixSession(inst.matrix)
        outcome = verify_candidates(inst, {2: bf.TRUE}, session=session,
                                    matrix_session=matrix)
        assert outcome.verdict == "FALSE"
        assert outcome.sigma_x == {1: False}

    def test_empty_existentials(self):
        inst = DQBFInstance([1], {}, CNF([[1, -1]]))
        session = VerifierSession(inst)
        matrix = MatrixSession(inst.matrix)
        assert verify_candidates(inst, {}, session=session,
                                 matrix_session=matrix).verdict == "VALID"

    def test_one_session_alone_is_rejected(self):
        from repro.utils.errors import ReproError

        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        with pytest.raises(ReproError, match="both sessions or neither"):
            verify_candidates(inst, {2: bf.var(1)},
                              session=VerifierSession(inst))


class TestMatrixSessionUnates:
    CASES = [
        make([1], {2: [1]}, [[1, 2]]),                    # positive unate
        make([1], {2: [1]}, [[1, -2]]),                   # negative unate
        make([1], {2: [1]}, [[-2, 1], [2, -1]]),          # not unate
        make([1], {2: [1], 3: [1]},
             [[1, 2], [2, -3], [3, 1]]),                  # sequential fix
        make([1, 2], {3: [1, 2], 4: [1]},
             [[1, 2, 3], [-3, -4], [4, 1]]),
    ]

    #: Unates of CASES by the definition — ``ϕ|_{y=¬v} ∧ ¬ϕ|_{y=v}``
    #: UNSAT, with each constant fixed before the next check — as a
    #: fresh solver per cofactor formula computes them.
    COFACTOR_UNATES = [{2: bf.TRUE}, {2: bf.FALSE}, {},
                       {2: bf.TRUE, 3: bf.TRUE}, {3: bf.FALSE, 4: bf.TRUE}]

    @pytest.mark.parametrize("inst, expected",
                             zip(CASES, COFACTOR_UNATES),
                             ids=["inst%d" % i for i in range(len(CASES))])
    def test_matches_fresh_cofactor_path(self, inst, expected):
        session = MatrixSession(inst.matrix)
        assert detect_unates(inst, session) == expected

    def test_dual_rail_retires(self):
        inst = self.CASES[0]
        session = MatrixSession(inst.matrix)
        detect_unates(inst, session)
        live = session.solver.clause_counts()["live_clauses"]
        session.retire_dual()
        # Dual clauses are dead (unhooked; compaction may be deferred).
        assert session.solver.clause_counts()["live_clauses"] < live
        # Extension-style queries still work after retirement.
        assert session.solve([1], purpose="extension") in (SAT, UNSAT)

    def test_extension_queries_unaffected_by_dual(self):
        inst = make([1], {2: [1]}, [[1, 2]])
        session = MatrixSession(inst.matrix)
        assert session.solve([-1], purpose="extension") == SAT
        assert session.model[2] is True
        detect_unates(inst, session)  # builds + uses dual
        assert session.solve([-1], purpose="extension") == SAT
        assert session.model[2] is True


class TestRepairWithSession:
    def test_session_repair_converges(self):
        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1, 2], [3, -1], [3, -2]])       # y ↔ (x1 ∨ x2)
        candidates = {3: bf.FALSE}
        tracker = DependencyTracker(inst.existentials)
        config = Manthan3Config()
        session = VerifierSession(inst)
        matrix = MatrixSession(inst.matrix)
        cex_matrix = SampleMatrix(inst.universals)
        for _ in range(10):
            outcome = verify_candidates(inst, candidates, session=session,
                                        matrix_session=matrix)
            if outcome.verdict == "VALID":
                break
            repair_iteration(inst, candidates, tracker, [3],
                             outcome.sigma_x, config, matrix, cex_matrix)
        assert verify_candidates(inst, candidates, session=session,
                                 matrix_session=matrix).verdict == "VALID"
