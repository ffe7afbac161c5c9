"""Tests for the ID3/Gini decision tree."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.learning.decision_tree import DecisionTree, gini
from repro.utils.errors import ReproError

from tests.learning.row_tree import RowDecisionTree


def _train_on_function(func, features, samples=None):
    """Train on the full truth table (or a sample list) of ``func``."""
    rows = []
    labels = []
    space = samples or list(itertools.product([0, 1],
                                              repeat=len(features)))
    for bits in space:
        row = dict(zip(features, bits))
        rows.append(row)
        labels.append(func(row))
    return DecisionTree().fit(rows, labels, features), rows, labels


class TestGini:
    def test_pure_is_zero(self):
        assert gini(0, 10) == 0.0
        assert gini(10, 10) == 0.0

    def test_balanced_is_half(self):
        assert gini(5, 10) == pytest.approx(0.5)

    def test_empty(self):
        assert gini(0, 0) == 0.0


class TestFit:
    def test_constant_labels(self):
        tree = DecisionTree().fit([{1: 0}, {1: 1}], [1, 1], [1])
        assert tree.root.is_leaf()
        assert tree.root.label == 1

    def test_learns_identity(self):
        tree, rows, labels = _train_on_function(lambda r: r[7], [7])
        assert tree.predict(rows) == labels

    def test_learns_conjunction_exactly(self):
        tree, rows, labels = _train_on_function(
            lambda r: r[1] & r[2], [1, 2])
        assert tree.predict(rows) == labels

    def test_learns_xor_exactly(self):
        """XOR needs both features on every path — the ID3 stress case."""
        tree, rows, labels = _train_on_function(
            lambda r: r[1] ^ r[2], [1, 2])
        assert tree.predict(rows) == labels
        assert tree.used_features() == {1, 2}

    def test_learns_three_var_majority(self):
        tree, rows, labels = _train_on_function(
            lambda r: int(r[1] + r[2] + r[3] >= 2), [1, 2, 3])
        assert tree.predict(rows) == labels

    def test_irrelevant_features_unused(self):
        tree, rows, labels = _train_on_function(lambda r: r[1], [1, 2, 3])
        assert tree.used_features() == {1}

    def test_max_depth_limits_growth(self):
        tree, _, _ = _train_on_function(
            lambda r: r[1] ^ r[2] ^ r[3], [1, 2, 3])
        shallow = DecisionTree(max_depth=1)
        rows = [dict(zip([1, 2, 3], bits))
                for bits in itertools.product([0, 1], repeat=3)]
        labels = [r[1] ^ r[2] ^ r[3] for r in rows]
        shallow.fit(rows, labels, [1, 2, 3])
        assert shallow.depth() <= 1

    def test_sequence_rows_accepted(self):
        tree = DecisionTree().fit([(0, 1), (1, 0)], [0, 1], [5, 6])
        assert tree.predict_one({5: 1, 6: 0}) == 1

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ReproError):
            DecisionTree().fit([{1: 0}], [0, 1], [1])

    def test_tie_label(self):
        rows = [{1: 0}, {1: 0}]
        tree = DecisionTree(tie_label=1).fit(rows, [0, 1], [1])
        assert tree.root.label == 1
        tree0 = DecisionTree(tie_label=0).fit(rows, [0, 1], [1])
        assert tree0.root.label == 0

    def test_empty_training_set(self):
        tree = DecisionTree(tie_label=0).fit([], [], [1])
        assert tree.root.is_leaf()
        assert tree.predict_one({1: 1}) == 0

    def test_noisy_labels_pick_majority(self):
        rows = [{1: 0}] * 9 + [{1: 0}]
        labels = [0] * 9 + [1]
        tree = DecisionTree().fit(rows, labels, [1])
        assert tree.predict_one({1: 0}) == 0


class TestInspection:
    def test_leaf_count(self):
        tree, _, _ = _train_on_function(lambda r: r[1] ^ r[2], [1, 2])
        assert tree.leaf_count() == 4

    def test_depth_of_constant(self):
        tree = DecisionTree().fit([{1: 0}], [1], [1])
        assert tree.depth() == 0


def same_tree(a, b):
    """Structural equality: identical splits, leaves, and sample counts."""
    if a.is_leaf() != b.is_leaf():
        return False
    if a.is_leaf():
        return (a.label == b.label and a.samples == b.samples
                and a.impurity == b.impurity)
    return (a.feature == b.feature and a.samples == b.samples
            and same_tree(a.low, b.low) and same_tree(a.high, b.high))


class TestBitsetEquivalence:
    """``fit_bitset`` must grow the *same* tree as the row-wise reference
    grower (split-for-split, under the shared first-best tie-break)."""

    @staticmethod
    def _fit_both(rows, labels, features, **kwargs):
        dict_tree = RowDecisionTree(**kwargs).fit(
            [dict(r) for r in rows], list(labels), features)
        columns = {f: 0 for f in features}
        label_bits = 0
        for i, row in enumerate(rows):
            for f in features:
                if row[f]:
                    columns[f] |= 1 << i
            if labels[i]:
                label_bits |= 1 << i
        bit_tree = DecisionTree(**kwargs).fit_bitset(
            columns, label_bits, features, len(rows))
        return dict_tree, bit_tree

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_identical_trees_on_random_matrices(self, data):
        n_features = data.draw(st.integers(1, 5), label="n_features")
        n_rows = data.draw(st.integers(0, 24), label="n_rows")
        features = list(range(10, 10 + n_features))
        rows = [
            {f: data.draw(st.integers(0, 1)) for f in features}
            for _ in range(n_rows)
        ]
        labels = [data.draw(st.integers(0, 1)) for _ in range(n_rows)]
        max_depth = data.draw(st.sampled_from([None, 1, 2, 3]),
                              label="max_depth")
        dict_tree, bit_tree = self._fit_both(rows, labels, features,
                                             max_depth=max_depth)
        assert same_tree(dict_tree.root, bit_tree.root)
        assert dict_tree.used_features() == bit_tree.used_features()
        assert dict_tree.leaf_count() == bit_tree.leaf_count()
        if rows:
            assert dict_tree.predict(rows) == bit_tree.predict(rows)
        # fit() packs the rows and must grow the same tree again
        packed = DecisionTree(max_depth=max_depth).fit(rows, labels,
                                                       features)
        assert same_tree(packed.root, bit_tree.root)

    def test_xor_learned_identically(self):
        features = [1, 2]
        rows = [{1: a, 2: b} for a in (0, 1) for b in (0, 1)]
        labels = [r[1] ^ r[2] for r in rows]
        dict_tree, bit_tree = self._fit_both(rows, labels, features)
        assert same_tree(dict_tree.root, bit_tree.root)
        assert bit_tree.used_features() == {1, 2}

    def test_tie_label_respected(self):
        rows = [{1: 0}, {1: 0}]
        for tie in (0, 1):
            dict_tree, bit_tree = self._fit_both(rows, [0, 1], [1],
                                                 tie_label=tie)
            assert bit_tree.root.label == tie
            assert same_tree(dict_tree.root, bit_tree.root)

    def test_bitops_counted(self):
        features = [1, 2]
        rows = [{1: a, 2: b} for a in (0, 1) for b in (0, 1)]
        labels = [r[1] & r[2] for r in rows]
        _, bit_tree = self._fit_both(rows, labels, features)
        assert bit_tree.bitops > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=255))
def test_trees_memorize_full_tables_property(truth_bits):
    """Property: trained on a complete 3-var truth table, the tree
    reproduces it exactly (no pruning by default)."""
    features = [1, 2, 3]
    rows = [dict(zip(features, bits))
            for bits in itertools.product([0, 1], repeat=3)]
    labels = [(truth_bits >> i) & 1 for i in range(8)]
    tree = DecisionTree().fit(rows, labels, features)
    assert tree.predict(rows) == labels
