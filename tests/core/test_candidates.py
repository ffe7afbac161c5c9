"""Tests for candidate learning and dependency tracking (Algorithm 2)."""

from repro.core.candidates import (
    DependencyTracker,
    feature_set_for,
    learn_all_candidates,
    learn_candidate,
)
from repro.core.config import Manthan3Config
from repro.dqbf.instance import DQBFInstance
from repro.formula.bitvec import SampleMatrix
from repro.formula.cnf import CNF


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


class TestDependencyTracker:
    def test_seed_subset_pairs(self):
        inst = make([1, 2], {3: [1], 4: [1, 2]}, [[3, 4]])
        tracker = DependencyTracker(inst.existentials)
        tracker.seed_subset_pairs(inst)
        # H3 ⊂ H4: y4 may use y3, y3 must not use y4.
        assert tracker.may_use(4, 3)
        assert not tracker.may_use(3, 4)

    def test_no_self_use(self):
        tracker = DependencyTracker([3])
        assert not tracker.may_use(3, 3)

    def test_transitive_cycle_prevention(self):
        tracker = DependencyTracker([3, 4, 5])
        tracker.record_use(3, {4})
        tracker.record_use(4, {5})
        # 5 using 3 would close the cycle 3→4→5→3.
        assert not tracker.may_use(5, 3)
        assert tracker.may_use(3, 5)

    def test_edges_enumeration(self):
        tracker = DependencyTracker([3, 4])
        tracker.record_use(3, {4})
        assert list(tracker.edges()) == [(3, 4)]

    def test_descendants_cache_invalidated_on_record_use(self):
        tracker = DependencyTracker([3, 4, 5])
        # Warm the cache for every node's reachability.
        assert tracker.may_use(5, 3) and tracker.may_use(3, 5)
        tracker.record_use(3, {4})
        tracker.record_use(4, {5})
        # Queries after mutation must see the new transitive edges.
        assert tracker.descendants(3) == {4, 5}
        assert not tracker.may_use(5, 3)
        assert tracker.may_use(3, 5)

    def test_descendants_cached_between_queries(self):
        tracker = DependencyTracker([3, 4, 5])
        tracker.record_use(3, {4})
        first = tracker.descendants(3)
        assert tracker.descendants(3) is first
        # An edge that cannot change 3's reachability keeps the cache.
        tracker.record_use(5, {3})
        assert tracker.descendants(3) is first
        assert tracker.descendants(5) == {3, 4}

    def test_cache_composes_from_cached_subresults(self):
        tracker = DependencyTracker([1, 2, 3, 4])
        tracker.record_use(3, {4})
        assert tracker.descendants(3) == {4}
        tracker.record_use(2, {3})
        tracker.record_use(1, {2})
        assert tracker.descendants(1) == {2, 3, 4}

    def test_matches_networkx_reachability_on_random_dags(self):
        import itertools
        import random

        import networkx as nx

        rng = random.Random(7)
        for trial in range(30):
            nodes = list(range(1, rng.randint(3, 9)))
            tracker = DependencyTracker(nodes)
            reference = nx.DiGraph()
            reference.add_nodes_from(nodes)
            for _ in range(rng.randint(0, 12)):
                # Only add DAG-preserving edges, as the engine does.
                u, v = rng.sample(nodes, 2)
                if tracker.may_use(u, v):
                    tracker.record_use(u, {v})
                    reference.add_edge(u, v)
                # Interleave queries so caching/invalidation is stressed.
                a, b = rng.sample(nodes, 2)
                assert tracker.may_use(a, b) == \
                    (not nx.has_path(reference, b, a)), trial
            for a, b in itertools.permutations(nodes, 2):
                assert tracker.may_use(a, b) == \
                    (not nx.has_path(reference, b, a)), trial


class TestFeatureSets:
    def test_dependencies_always_included(self):
        inst = make([1, 2], {3: [1, 2]}, [[3]])
        tracker = DependencyTracker(inst.existentials)
        assert feature_set_for(inst, 3, tracker) == [1, 2]

    def test_subset_y_included(self):
        inst = make([1, 2], {3: [1], 4: [1, 2]}, [[3, 4]])
        tracker = DependencyTracker(inst.existentials)
        tracker.seed_subset_pairs(inst)
        assert 3 in feature_set_for(inst, 4, tracker)
        assert 4 not in feature_set_for(inst, 3, tracker)

    def test_equal_sets_one_direction_allowed(self):
        inst = make([1], {3: [1], 4: [1]}, [[3, 4]])
        tracker = DependencyTracker(inst.existentials)
        tracker.seed_subset_pairs(inst)
        assert 4 in feature_set_for(inst, 3, tracker)
        tracker.record_use(3, {4})
        assert 3 not in feature_set_for(inst, 4, tracker)

    def test_use_y_features_flag(self):
        inst = make([1], {3: [1], 4: [1]}, [[3, 4]])
        tracker = DependencyTracker(inst.existentials)
        assert feature_set_for(inst, 4, tracker,
                               use_y_features=False) == [1]

    def test_fixed_candidates_excluded(self):
        inst = make([1], {3: [1], 4: [1]}, [[3, 4]])
        tracker = DependencyTracker(inst.existentials)
        feats = feature_set_for(inst, 4, tracker, fixed={3})
        assert 3 not in feats


class TestLearning:
    def test_learns_from_deterministic_samples(self):
        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        samples = SampleMatrix.from_models([{1: False, 2: False},
                                            {1: True, 2: True}])
        tracker = DependencyTracker(inst.existentials)
        expr, used = learn_candidate(inst, 2, samples, tracker,
                                     Manthan3Config())
        assert expr.evaluate({1: True})
        assert not expr.evaluate({1: False})
        assert used == set()

    def test_y_feature_use_recorded(self):
        inst = make([1, 2], {3: [1], 4: [1, 2]}, [[3, 4]])
        samples = SampleMatrix.from_models(
            [{1: False, 2: False, 3: True, 4: True},
             {1: True, 2: False, 3: False, 4: False},
             {1: False, 2: True, 3: True, 4: True},
             {1: True, 2: True, 3: False, 4: False}])
        tracker = DependencyTracker(inst.existentials)
        tracker.seed_subset_pairs(inst)
        expr, used = learn_candidate(inst, 4, samples, tracker,
                                     Manthan3Config())
        # y4 = y3 in the samples; tree may learn via y3 or via x1.
        if 3 in used:
            assert not tracker.may_use(3, 4)

    def test_learn_all_includes_fixed(self):
        from repro.formula import boolfunc as bf

        inst = make([1], {2: [1], 3: [1]}, [[2, 3]])
        samples = [{1: True, 2: True, 3: True},
                   {1: False, 2: False, 3: True}]
        candidates, tracker = learn_all_candidates(
            inst, samples, Manthan3Config(), fixed={2: bf.TRUE})
        assert candidates[2] is bf.TRUE
        assert 3 in candidates

    def test_fixed_reference_edges_recorded(self):
        from repro.formula import boolfunc as bf

        inst = make([1], {2: [1], 3: [1]}, [[2, 3]])
        samples = [{1: True, 2: True, 3: True}]
        fixed = {3: bf.var(2)}  # definition referencing y2
        _, tracker = learn_all_candidates(inst, samples,
                                          Manthan3Config(), fixed=fixed)
        assert (3, 2) in set(tracker.edges())


class TestBitparallelLearning:
    def _random_setup(self, seed):
        import random

        rng = random.Random(seed)
        inst = make([1, 2, 3], {4: [1, 2], 5: [1, 2, 3]}, [[4, 5]])
        samples = [
            {v: rng.random() < 0.5 for v in (1, 2, 3, 4, 5)}
            for _ in range(rng.randint(4, 40))
        ]
        return inst, samples

    def test_accepts_prepacked_matrix(self):
        """Assignment dicts are packed up front; a prepacked matrix of
        the same samples learns the same candidates."""
        for seed in range(10):
            inst, samples = self._random_setup(seed)
            matrix = SampleMatrix.from_models(samples)
            packed, _ = learn_all_candidates(inst, matrix, Manthan3Config())
            plain, _ = learn_all_candidates(inst, samples,
                                            Manthan3Config())
            # BoolExprs are interned: identical functions are identical
            # objects.
            assert packed == plain, seed

    def test_learning_stats_recorded(self):
        inst, samples = self._random_setup(1)
        stats = {}
        learn_all_candidates(inst, samples, Manthan3Config(), stats=stats)
        assert set(stats) == {"fit_s", "trees", "bitops"}
        assert stats["trees"] == 2
        assert stats["bitops"] > 0
        assert stats["fit_s"] >= 0.0
