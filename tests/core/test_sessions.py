"""Tests for the incremental oracle sessions and, crucially, the
incremental-vs-fresh **equivalence suite**: the two paths must reach the
same verdict on every instance, and any synthesized vector must certify.

Exact trajectories are *not* required to match — a persistent solver
returns different (equally valid) counterexample models than a fresh
one — so equivalence is stated at the level the acceptance contract
cares about: final ``Status``, certified functions, and campaign solved
counts.
"""

import pytest

from repro.benchgen import (
    build_suite,
    generate_planted_instance,
    generate_xor_chain_instance,
)
from repro.core import Manthan3, Manthan3Config, Status
from repro.core.preprocess import detect_unates
from repro.core.repair import repair_iteration
from repro.core.sessions import MatrixSession, VerifierSession
from repro.core.verifier import verify_candidates
from repro.core.candidates import DependencyTracker
from repro.dqbf import check_henkin_vector
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
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
        assert verify_candidates(inst, {}, session=session).verdict == \
            "VALID"


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

    @pytest.mark.parametrize("inst", CASES)
    def test_matches_fresh_cofactor_path(self, inst):
        session = MatrixSession(inst.matrix)
        assert detect_unates(inst, matrix_session=session) == \
            detect_unates(inst)

    def test_dual_rail_retires(self):
        inst = self.CASES[0]
        session = MatrixSession(inst.matrix)
        detect_unates(inst, matrix_session=session)
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
        detect_unates(inst, matrix_session=session)  # builds + uses dual
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
        for _ in range(10):
            outcome = verify_candidates(inst, candidates, session=session,
                                        matrix_session=matrix)
            if outcome.verdict == "VALID":
                break
            repair_iteration(inst, candidates, tracker, [3],
                             outcome.sigma_x, config, matrix_session=matrix)
        assert verify_candidates(inst, candidates,
                                 session=session).verdict == "VALID"


def _run_both(inst, timeout=60, **config_kwargs):
    results = {}
    for incremental in (True, False):
        config = Manthan3Config(seed=9, incremental=incremental,
                                **config_kwargs)
        results[incremental] = Manthan3(config).run(inst, timeout=timeout)
    return results[True], results[False]


class TestEngineEquivalence:
    """Same final Status on both paths; synthesized vectors certify."""

    def test_planted_family(self):
        for seed in (11, 12, 13):
            inst = generate_planted_instance(
                num_universals=16, num_existentials=3, dep_width=14,
                region_width=3, rules_per_y=5, seed=seed)
            live, fresh = _run_both(inst)
            assert live.status == fresh.status, seed
            for result in (live, fresh):
                if result.synthesized:
                    cert = check_henkin_vector(inst, result.functions)
                    assert cert.valid, (seed, cert.reason)

    def test_false_instances(self):
        inst = make([1], {2: [1]}, [[1]])
        live, fresh = _run_both(inst)
        assert live.status == fresh.status == Status.FALSE
        inst2 = make([1], {2: [1]}, [[2], [-2]])
        live2, fresh2 = _run_both(inst2)
        assert live2.status == fresh2.status == Status.FALSE

    def test_xor_chain_family_stays_sound(self):
        """§5-incompleteness-prone family: whether repair converges is
        trajectory luck, and the two paths draw different (equally
        valid) counterexamples — so only soundness is pinned here, not
        which of SYNTHESIZED/UNKNOWN each path lands on."""
        inst = generate_xor_chain_instance(chain_length=3, window=2, seed=4)
        live, fresh = _run_both(inst)
        for result in (live, fresh):
            assert result.status in (Status.SYNTHESIZED, Status.UNKNOWN)
            if result.synthesized:
                assert check_henkin_vector(inst, result.functions).valid

    def test_stats_shape_matches_modulo_oracle_counters(self):
        inst = generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=21)
        live, fresh = _run_both(inst)
        assert live.status == fresh.status
        live_keys = set(live.stats) - {"oracle"}
        assert live_keys == set(fresh.stats)
        assert "oracle" in live.stats and "oracle" not in fresh.stats
        oracle = live.stats["oracle"]
        assert oracle["verifier"]["calls"] >= 1
        assert oracle["verifier"]["encode_misses"] >= 1
        assert oracle["sampler"]["calls"] >= 1

    def test_campaign_solved_counts_match_on_planted_suite(self):
        """Campaign over the planted suite on the two paths: identical
        solved sets, every claim certified."""
        from repro.portfolio import run_campaign

        suite = [generate_planted_instance(
                     num_universals=14 + 2 * i, num_existentials=3,
                     dep_width=12, region_width=3, rules_per_y=4,
                     seed=30 + i)
                 for i in range(3)]
        table = run_campaign(suite, ["manthan3", "manthan3-fresh"],
                             timeout=60, seed=3)
        live = table.solved_instances("manthan3")
        fresh = table.solved_instances("manthan3-fresh")
        assert live == fresh == {inst.name for inst in suite}
        for record in table.records:
            assert record.certified is True, record.instance

    def test_smoke_campaign_never_unsound_on_either_path(self):
        """Mixed smoke suite: the two paths may disagree on the
        luck-dependent §5 families, but neither may certify wrong."""
        from repro.portfolio import run_campaign

        suite = build_suite("smoke", seed=1)[:4]
        table = run_campaign(suite, ["manthan3", "manthan3-fresh"],
                             timeout=60, seed=3)
        for record in table.records:
            assert record.certified is not False, record.instance
