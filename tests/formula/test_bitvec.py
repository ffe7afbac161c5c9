"""Tests for the bit-parallel simulation substrate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.formula import boolfunc as bf
from repro.formula.bitvec import (
    SampleMatrix,
    eval_bitset,
    evaluate_vector_bits,
    refresh_vector_bits,
)
from repro.utils.errors import ReproError

VARS = [1, 2, 3, 4, 5, 6]


def random_expr(rng, variables, depth):
    """A random BoolExpr DAG over ``variables`` (smart-constructed)."""
    if depth == 0 or rng.random() < 0.3:
        leaf = bf.var(rng.choice(variables))
        return bf.not_(leaf) if rng.random() < 0.5 else leaf
    op = rng.choice(["and", "or", "xor", "not"])
    if op == "not":
        return bf.not_(random_expr(rng, variables, depth - 1))
    arity = rng.randint(2, 3)
    children = [random_expr(rng, variables, depth - 1)
                for _ in range(arity)]
    build = {"and": bf.and_, "or": bf.or_, "xor": bf.xor}[op]
    return build(*children)


def random_matrix(rng, variables, rows):
    return SampleMatrix.from_models(
        [{v: rng.random() < 0.5 for v in variables} for _ in range(rows)])


class TestSampleMatrix:
    def test_from_models_round_trips(self):
        models = [{1: True, 2: False}, {1: False, 2: False},
                  {1: True, 2: True}]
        matrix = SampleMatrix.from_models(models)
        assert len(matrix) == 3
        assert matrix.rows() == models

    def test_column_packing(self):
        matrix = SampleMatrix.from_models(
            [{7: True}, {7: False}, {7: True}])
        assert matrix.column(7) == 0b101

    def test_append_returns_row_index(self):
        matrix = SampleMatrix([1])
        assert matrix.append({1: True}) == 0
        assert matrix.append({1: False}) == 1
        assert matrix.mask == 0b11

    def test_declared_variables_zero_rows(self):
        matrix = SampleMatrix([1, 2])
        assert len(matrix) == 0
        assert matrix.mask == 0
        assert matrix.column(2) == 0

    def test_missing_variable_raises(self):
        matrix = SampleMatrix([1, 2])
        matrix.append({1: True, 2: False})
        with pytest.raises(KeyError):
            matrix.append({1: True})

    def test_row_out_of_range(self):
        matrix = SampleMatrix.from_models([{1: True}])
        with pytest.raises(ReproError):
            matrix.row(1)

    def test_copy_is_independent(self):
        matrix = SampleMatrix.from_models([{1: True}])
        dup = matrix.copy()
        dup.append({1: False})
        assert len(matrix) == 1
        assert len(dup) == 2

    def test_extra_assignment_keys_ignored(self):
        """Counterexample rows may assign more than the matrix tracks."""
        matrix = SampleMatrix([1])
        matrix.append({1: True, 9: False})
        assert matrix.columns == {1: 1}


class TestEvalBitset:
    def test_constants(self):
        matrix = random_matrix(random.Random(0), VARS, 5)
        assert eval_bitset(bf.TRUE, matrix) == matrix.mask
        assert eval_bitset(bf.FALSE, matrix) == 0

    def test_single_variable(self):
        matrix = SampleMatrix.from_models(
            [{3: True}, {3: False}, {3: True}])
        assert eval_bitset(bf.var(3), matrix) == 0b101
        assert eval_bitset(bf.not_(bf.var(3)), matrix) == 0b010

    def test_empty_matrix(self):
        matrix = SampleMatrix([1])
        assert eval_bitset(bf.var(1) | bf.TRUE, matrix) == 0

    def test_shared_memo_across_expressions(self):
        matrix = SampleMatrix.from_models([{1: True, 2: True}])
        memo = {}
        a = bf.and_(bf.var(1), bf.var(2))
        assert eval_bitset(a, matrix, memo) == 1
        # The shared subnode is served from the memo on the second sweep.
        b = bf.xor(a, bf.var(2))
        assert eval_bitset(b, matrix, memo) == 0
        assert id(a) in memo

    def test_shared_memo_on_heavily_shared_dag(self):
        """A layered DAG whose tree expansion is thousands of paths for
        about 70 distinct nodes: every node reads nodes of the layer
        below.  Sweeping all roots through one memo must agree with
        per-row ``evaluate``."""
        rng = random.Random(0)
        variables = list(range(1, 11))
        layer = [bf.var(v) for v in variables]
        for _ in range(14):
            layer = [rng.choice([bf.and_, bf.or_, bf.xor])(
                         *rng.sample(layer, 2))
                     if rng.random() < 0.8 else bf.not_(rng.choice(layer))
                     for _ in range(10)]
        matrix = random_matrix(rng, variables, 40)
        memo = {}
        for root in layer:
            bits = eval_bitset(root, matrix, memo)
            for i in range(len(matrix)):
                assert bool((bits >> i) & 1) == root.evaluate(matrix.row(i))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_agrees_with_per_assignment_evaluate(self, seed):
        """Property: bit i of eval_bitset == evaluate(row i), for random
        DAGs on random matrices."""
        rng = random.Random(seed)
        expr = random_expr(rng, VARS, rng.randint(1, 4))
        matrix = random_matrix(rng, VARS, rng.randint(1, 12))
        bits = eval_bitset(expr, matrix)
        assert bits <= matrix.mask
        for i in range(len(matrix)):
            assert bool((bits >> i) & 1) == expr.evaluate(matrix.row(i)), i


class TestVectorEvaluation:
    def _vector(self, rng):
        """A composed candidate vector y5, y6 over x1..x4 (y5 uses y6)."""
        candidates = {
            5: bf.or_(bf.and_(bf.var(1), bf.var(6)), bf.var(2)),
            6: bf.xor(bf.var(3), bf.var(4)),
        }
        order = [5, 6]  # depender first, as find_order produces
        matrix = random_matrix(rng, [1, 2, 3, 4], rng.randint(1, 10))
        return candidates, order, matrix

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_evaluate_vector_bits_matches_scalar(self, seed):
        from repro.core.repair import evaluate_vector

        rng = random.Random(seed)
        candidates, order, matrix = self._vector(rng)
        bits = evaluate_vector_bits(candidates, order, matrix)
        for i in range(len(matrix)):
            scalar = evaluate_vector(candidates, order, matrix.row(i))
            for y in order:
                assert bool((bits[y] >> i) & 1) == scalar[y], (i, y)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_refresh_vector_bits_matches_full_reevaluation(self, seed):
        rng = random.Random(seed)
        candidates, order, matrix = self._vector(rng)
        outputs = evaluate_vector_bits(candidates, order, matrix)
        # Repair y5 (the depender): refresh must equal a full sweep.
        candidates[5] = bf.and_(candidates[5], bf.not_(bf.var(2)))
        refreshed = refresh_vector_bits(candidates, order, outputs,
                                        matrix, 5)
        assert refreshed == evaluate_vector_bits(candidates, order, matrix)

    def test_matrix_left_untouched(self):
        rng = random.Random(3)
        candidates, order, matrix = self._vector(rng)
        before = dict(matrix.columns)
        evaluate_vector_bits(candidates, order, matrix)
        assert matrix.columns == before
        assert 5 not in matrix.columns
