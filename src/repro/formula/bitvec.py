"""Bit-parallel simulation substrate: packed sample matrices.

This module plays the role ABC's word-parallel simulation plays in the
paper's implementation, using arbitrary-width Python ints as the machine
words.  A :class:`SampleMatrix` stores a set of assignments *column
major*: one integer per variable where bit ``i`` holds sample ``i``'s
value.  :func:`eval_bitset` then evaluates a whole
:class:`~repro.formula.boolfunc.BoolExpr` DAG on **every** sample at once
— one bitwise operation per DAG node — instead of one tree walk per
assignment.

The learn→repair pipeline is routed through this substrate
(``Manthan3Config.bitparallel``): the decision-tree learner scores
splits with popcounts over matrix columns, and repair evaluates the
candidate vector over the batched counterexample matrix.

Memoization contract: :func:`eval_bitset` takes an optional ``memo``
dict (id(node) → bitset) that may be shared across calls **as long as
no column read by an already-memoized node changes between calls**.
:func:`evaluate_vector_bits` and :func:`refresh_vector_bits` exploit
this: walking ``reversed(order)`` sets each output column exactly once,
*before* any expression that reads it is swept, so one memo serves the
whole vector.
"""

from repro.formula.boolfunc import OP_AND, OP_CONST, OP_NOT, OP_OR, OP_VAR, OP_XOR
from repro.utils.errors import ReproError


class SampleMatrix:
    """A packed, column-major matrix of assignments.

    ``columns[v]`` is an int whose bit ``i`` is sample ``i``'s value of
    variable ``v``.  Rows are appended with :meth:`append` (samples from
    :meth:`~repro.sampling.Sampler.draw`, or counterexample assignments
    during repair); the variable set is fixed by the constructor or by
    the first appended assignment.
    """

    __slots__ = ("columns", "num_rows")

    def __init__(self, variables=()):
        self.columns = {int(v): 0 for v in variables}
        self.num_rows = 0

    @classmethod
    def from_models(cls, models, variables=None):
        """Pack an iterable of ``{var: bool}`` assignments."""
        matrix = cls(variables if variables is not None else ())
        for model in models:
            matrix.append(model)
        return matrix

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def append(self, assignment):
        """Add one row; returns its row index.

        The first row of a matrix built without explicit variables fixes
        the column set.  Later rows must assign every column (missing
        variables raise ``KeyError`` — silent zero-fill would corrupt
        the learner's labels).
        """
        if not self.columns and self.num_rows == 0:
            self.columns = {int(v): 0 for v in assignment}
        row = self.num_rows
        bit = 1 << row
        columns = self.columns
        for v in columns:
            if assignment[v]:
                columns[v] |= bit
        self.num_rows = row + 1
        return row

    def copy(self):
        """Shallow copy (columns dict is copied; ints are immutable)."""
        dup = SampleMatrix()
        dup.columns = dict(self.columns)
        dup.num_rows = self.num_rows
        return dup

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def mask(self):
        """All-rows mask ``(1 << num_rows) - 1``."""
        return (1 << self.num_rows) - 1

    def column(self, v):
        """The packed column of variable ``v``."""
        return self.columns[v]

    def row(self, i):
        """Row ``i`` as a ``{var: bool}`` assignment."""
        if not 0 <= i < self.num_rows:
            raise ReproError("row %d out of range (%d rows)"
                             % (i, self.num_rows))
        return {v: bool((bits >> i) & 1) for v, bits in self.columns.items()}

    def rows(self):
        """All rows as assignment dicts (dict-path interop)."""
        return [self.row(i) for i in range(self.num_rows)]

    def __len__(self):
        return self.num_rows

    def __repr__(self):
        return "SampleMatrix(%d vars x %d rows)" % (len(self.columns),
                                                    self.num_rows)


def eval_bitset(expr, matrix, memo=None):
    """Evaluate ``expr`` on every row of ``matrix`` in one DAG sweep.

    Returns an int whose bit ``i`` is ``expr.evaluate(matrix.row(i))``.
    Each distinct DAG node costs one bitwise operation over the packed
    width; shared nodes are computed once via ``memo`` (which callers may
    pass in to share across expressions — see the module docstring for
    the validity contract).
    """
    mask = matrix.mask
    columns = matrix.columns
    if memo is None:
        memo = {}
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in memo:
            continue
        op = node.op
        if op == OP_CONST:
            memo[key] = mask if node.payload else 0
        elif op == OP_VAR:
            memo[key] = columns[node.payload]
        elif not expanded:
            stack.append((node, True))
            for child in node.children:
                if id(child) not in memo:
                    stack.append((child, False))
        else:
            children = node.children
            if op == OP_NOT:
                memo[key] = mask ^ memo[id(children[0])]
            elif op == OP_AND:
                acc = mask
                for child in children:
                    acc &= memo[id(child)]
                memo[key] = acc
            elif op == OP_OR:
                acc = 0
                for child in children:
                    acc |= memo[id(child)]
                memo[key] = acc
            elif op == OP_XOR:
                acc = 0
                for child in children:
                    acc ^= memo[id(child)]
                memo[key] = acc
            else:  # pragma: no cover - unreachable by construction
                raise ReproError("unknown op %r" % op)
    return memo[id(expr)]


def evaluate_vector_bits(candidates, order, matrix):
    """Candidate output bitsets on every row of ``matrix`` at once.

    The packed analogue of :func:`repro.core.repair.evaluate_vector`:
    walks ``reversed(order)`` so each candidate reads the already-packed
    outputs of the variables it depends on.  Returns ``{y: bitset}``.
    ``matrix`` itself is untouched (the walk runs on a scratch copy).
    """
    scratch = matrix.copy()
    columns = scratch.columns
    memo = {}
    for y in reversed(order):
        columns[y] = eval_bitset(candidates[y], scratch, memo)
    return {y: columns[y] for y in order}


def refresh_vector_bits(candidates, order, outputs, matrix, yk):
    """Output bitsets after only ``candidates[yk]`` changed.

    Packed analogue of :func:`repro.core.repair.refresh_vector`: a
    candidate reads only the outputs of variables *later* in ``order``,
    so a repair of ``yk`` can change nothing after it — re-sweeping
    ``yk`` and the positions before it (against the existing bitsets of
    the rest) reproduces :func:`evaluate_vector_bits` exactly.
    """
    scratch = matrix.copy()
    columns = scratch.columns
    columns.update(outputs)
    memo = {}
    for i in range(order.index(yk), -1, -1):
        y = order[i]
        columns[y] = eval_bitset(candidates[y], scratch, memo)
    return {y: columns[y] for y in order}
