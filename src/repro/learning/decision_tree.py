"""ID3 binary decision trees with the Gini impurity criterion.

Features and labels are binary (0/1).  Feature columns are identified by
arbitrary hashable ids — the synthesis engine passes variable ids so that
tree paths convert directly into Boolean formulas over those variables.

Training is bit-parallel: features and labels are packed column
bitsets (bit ``i`` = sample ``i``), split scoring is two popcounts per
feature, and node partitioning is two mask ANDs.
:meth:`DecisionTree.fit` packs row data (dicts or sequences) and grows
the same way as :meth:`DecisionTree.fit_bitset`.

Split choice is deterministic: candidate features are scanned in the
caller-given ``features`` order and a split is only adopted on a
*strictly* greater impurity decrease, so the earliest best feature
wins.  The weighted Gini is computed from four integer counts, so the
result does not depend on how the counts were obtained; the row-wise
grower in ``tests/learning/row_tree.py`` grows split-for-split the same
trees.
"""

from repro.utils.errors import ReproError


class Leaf:
    """A leaf predicting ``label`` (0 or 1)."""

    __slots__ = ("label", "samples", "impurity")

    def __init__(self, label, samples=0, impurity=0.0):
        self.label = label
        self.samples = samples
        self.impurity = impurity

    def is_leaf(self):
        return True


class Split:
    """An internal node testing one binary feature."""

    __slots__ = ("feature", "low", "high", "samples")

    def __init__(self, feature, low, high, samples=0):
        self.feature = feature
        self.low = low      # subtree for feature == 0
        self.high = high    # subtree for feature == 1
        self.samples = samples

    def is_leaf(self):
        return False


def gini(positive, total):
    """Gini impurity of a binary class distribution."""
    if total == 0:
        return 0.0
    p = positive / total
    return 2.0 * p * (1.0 - p)


class DecisionTree:
    """A trained binary decision tree.

    Parameters
    ----------
    max_depth:
        Growth bound (``None`` = unbounded, the engine default — candidate
        precision matters more than generalization here, as repair fixes
        overfitting anyway).
    min_impurity_decrease:
        Minimum weighted Gini reduction a split must achieve.  The
        default 0.0 accepts zero-gain splits on impure nodes — required
        to learn XOR-shaped functions, whose optimal first split has no
        Gini gain (scikit-learn's default behaves the same way).
    tie_label:
        Label predicted by leaves with an exactly balanced class mix.
    """

    def __init__(self, max_depth=None, min_impurity_decrease=0.0,
                 tie_label=1):
        self.max_depth = max_depth
        self.min_impurity_decrease = min_impurity_decrease
        self.tie_label = tie_label
        self.root = None
        self.features = None
        self.bitops = 0

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, rows, labels, features):
        """Train on ``rows`` (list of dicts or sequences) and 0/1 labels.

        ``features`` lists the feature ids; when rows are sequences their
        positions correspond to this list.  The rows are packed into
        column bitsets and grown by :meth:`fit_bitset`.
        """
        if len(rows) != len(labels):
            raise ReproError("rows/labels length mismatch")
        features = list(features)
        columns = dict.fromkeys(features, 0)
        label_bits = 0
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                row = dict(zip(features, row))
            for feature in features:
                if row[feature]:
                    columns[feature] |= 1 << i
            if labels[i]:
                label_bits |= 1 << i
        return self.fit_bitset(columns, label_bits, features, len(rows))

    def fit_bitset(self, columns, labels, features, num_rows):
        """Train from packed column bitsets (bit ``i`` = sample ``i``).

        ``columns`` maps feature id → bitset (only the ids in
        ``features`` are read), ``labels`` is the label bitset and
        ``num_rows`` the sample count (see the module docstring for the
        tie-break contract).  ``bitops`` counts the popcount/AND
        operations spent.
        """
        self.features = list(features)
        mask = (1 << num_rows) - 1
        self.root = self._grow_bits(columns, labels & mask, mask,
                                    self.features, 0)
        return self

    def _grow_bits(self, columns, labels, mask, features, depth):
        total = mask.bit_count()
        positives = (labels & mask).bit_count()
        self.bitops += 2
        node_impurity = gini(positives, total)

        if total == 0:
            return Leaf(self.tie_label, 0, 0.0)
        if positives == 0 or positives == total:
            return Leaf(1 if positives else 0, total, 0.0)
        if self.max_depth is not None and depth >= self.max_depth:
            return self._majority_leaf(positives, total, node_impurity)
        if not features:
            return self._majority_leaf(positives, total, node_impurity)

        node_labels = labels & mask
        best = None
        for feature in features:
            high = columns[feature] & mask
            n1 = high.bit_count()
            p1 = (high & node_labels).bit_count()
            self.bitops += 4
            n0 = total - n1
            p0 = positives - p1
            if n0 == 0 or n1 == 0:
                continue  # feature is constant on this node
            weighted = (n0 * gini(p0, n0) + n1 * gini(p1, n1)) / total
            decrease = node_impurity - weighted
            if best is None or decrease > best[0]:
                best = (decrease, feature, high)
        if best is None or best[0] < self.min_impurity_decrease:
            return self._majority_leaf(positives, total, node_impurity)

        feature, high_mask = best[1], best[2]
        low_mask = mask & ~high_mask
        self.bitops += 1
        remaining = [f for f in features if f != feature]
        return Split(
            feature,
            self._grow_bits(columns, labels, low_mask, remaining, depth + 1),
            self._grow_bits(columns, labels, high_mask, remaining, depth + 1),
            samples=total,
        )

    def _majority_leaf(self, positives, total, impurity):
        if positives * 2 == total:
            label = self.tie_label
        else:
            label = 1 if positives * 2 > total else 0
        return Leaf(label, total, impurity)

    # ------------------------------------------------------------------
    # inference / inspection
    # ------------------------------------------------------------------
    def predict_one(self, row):
        """Predict the label of one sample (dict feature→0/1)."""
        node = self.root
        while not node.is_leaf():
            node = node.high if row[node.feature] else node.low
        return node.label

    def predict(self, rows):
        if rows and not isinstance(rows[0], dict):
            rows = [dict(zip(self.features, row)) for row in rows]
        return [self.predict_one(row) for row in rows]

    def used_features(self):
        """Set of feature ids actually tested somewhere in the tree.

        Algorithm 2 (lines 11–12) uses this to discover which ``yj``
        variables the candidate really depends on.
        """
        used = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not None and not node.is_leaf():
                used.add(node.feature)
                stack.append(node.low)
                stack.append(node.high)
        return used

    def depth(self):
        def walk(node):
            if node.is_leaf():
                return 0
            return 1 + max(walk(node.low), walk(node.high))

        return walk(self.root) if self.root is not None else 0

    def leaf_count(self):
        def walk(node):
            if node.is_leaf():
                return 1
            return walk(node.low) + walk(node.high)

        return walk(self.root) if self.root is not None else 0
