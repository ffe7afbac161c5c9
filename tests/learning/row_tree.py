"""The row-wise decision-tree grower: the reference the bitset grower
is tested against.

:class:`RowDecisionTree` trains on per-sample dicts with one Python loop
per sample per feature per node — the original ID3 implementation,
kept here (``_grow`` verbatim) so ``TestBitsetEquivalence`` in
``test_decision_tree.py`` can check that
:meth:`~repro.learning.decision_tree.DecisionTree.fit_bitset` grows the
same trees split for split.
"""

from repro.learning.decision_tree import DecisionTree, Leaf, Split, gini
from repro.utils.errors import ReproError


class RowDecisionTree(DecisionTree):
    """A :class:`DecisionTree` trained by the row-wise grower."""

    def fit(self, rows, labels, features):
        if len(rows) != len(labels):
            raise ReproError("rows/labels length mismatch")
        self.features = list(features)
        if rows and not isinstance(rows[0], dict):
            rows = [dict(zip(self.features, row)) for row in rows]
        labels = [1 if l else 0 for l in labels]
        indices = list(range(len(rows)))
        self.root = self._grow(rows, labels, indices, self.features, 0)
        return self

    def _grow(self, rows, labels, indices, features, depth):
        total = len(indices)
        positives = sum(labels[i] for i in indices)
        node_impurity = gini(positives, total)

        if total == 0:
            return Leaf(self.tie_label, 0, 0.0)
        if positives == 0 or positives == total:
            return Leaf(1 if positives else 0, total, 0.0)
        if self.max_depth is not None and depth >= self.max_depth:
            return self._majority_leaf(positives, total, node_impurity)
        if not features:
            return self._majority_leaf(positives, total, node_impurity)

        best = None
        for feature in features:
            n1 = p1 = 0
            for i in indices:
                if rows[i][feature]:
                    n1 += 1
                    p1 += labels[i]
            n0 = total - n1
            p0 = positives - p1
            if n0 == 0 or n1 == 0:
                continue  # feature is constant on this node
            weighted = (n0 * gini(p0, n0) + n1 * gini(p1, n1)) / total
            decrease = node_impurity - weighted
            if best is None or decrease > best[0]:
                best = (decrease, feature)
        if best is None or best[0] < self.min_impurity_decrease:
            return self._majority_leaf(positives, total, node_impurity)

        feature = best[1]
        low_idx = [i for i in indices if not rows[i][feature]]
        high_idx = [i for i in indices if rows[i][feature]]
        remaining = [f for f in features if f != feature]
        return Split(
            feature,
            self._grow(rows, labels, low_idx, remaining, depth + 1),
            self._grow(rows, labels, high_idx, remaining, depth + 1),
            samples=total,
        )
