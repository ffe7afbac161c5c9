"""Shared fixtures and brute-force reference implementations.

The reference helpers here are deliberately naive (exponential
enumeration) so they are obviously correct; unit and property tests use
them as ground truth for the optimized implementations.
"""

import itertools
import random

import pytest

from repro.dqbf.instance import DQBFInstance
from repro.formula.cnf import CNF, lit_var, lit_sign


# ----------------------------------------------------------------------
# brute-force references
# ----------------------------------------------------------------------
def brute_force_models(cnf, variables=None):
    """All satisfying assignments over ``variables`` (default: 1..n)."""
    if variables is None:
        variables = list(range(1, cnf.num_vars + 1))
    models = []
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        for v in range(1, cnf.num_vars + 1):
            assignment.setdefault(v, False)
        if cnf.evaluate(assignment):
            models.append(assignment)
    return models


def brute_force_satisfiable(cnf):
    return bool(brute_force_models(cnf))


def brute_force_maxsat(hard, softs):
    """Minimum number of falsified softs over hard models, or None."""
    nv = hard.num_vars
    for clause in softs:
        for l in clause:
            nv = max(nv, lit_var(l))
    best = None
    for bits in itertools.product([False, True], repeat=nv):
        assignment = {i + 1: bits[i] for i in range(nv)}
        if not hard.evaluate(assignment):
            continue
        cost = sum(
            1 for clause in softs
            if not any(assignment[lit_var(l)] == lit_sign(l) for l in clause))
        if best is None or cost < best:
            best = cost
    return best


def brute_force_dqbf_true(instance):
    """Decide a (tiny) DQBF by enumerating all function vectors.

    Each candidate vector (one truth table per ``y`` over its sorted
    dependencies) is checked against all ``2^|X|`` universal assignments
    in one bitwise sweep: assignment ``r`` is bit ``r`` (``x_i`` is true
    in it iff bit ``i`` of ``r`` is set), a variable is a column of such
    bits, a clause is the OR of its literal columns, and the vector is a
    Henkin vector iff every clause column has all bits set.  A ``y``
    column is the OR of the minterm masks of the table rows it sets.
    """
    xs = list(instance.universals)
    ys = list(instance.existentials)
    rows = 1 << len(xs)
    full = (1 << rows) - 1
    columns = {x: sum(1 << r for r in range(rows) if r >> i & 1)
               for i, x in enumerate(xs)}
    position = {x: i for i, x in enumerate(xs)}
    y_tables = []
    for y in ys:
        deps = sorted(instance.dependencies[y])
        minterms = [0] * (1 << len(deps))
        for r in range(rows):
            m = 0
            for j, x in enumerate(deps):
                if r >> position[x] & 1:
                    m |= 1 << j
            minterms[m] |= 1 << r
        tables = []
        for table in range(1 << len(minterms)):
            column = 0
            for m, mask in enumerate(minterms):
                if table >> m & 1:
                    column |= mask
            tables.append(column)
        y_tables.append(tables)

    # Per clause: the constant X part, then (y index, negated) pairs.
    y_index = {y: k for k, y in enumerate(ys)}
    clauses = []
    for clause in instance.matrix.clauses:
        fixed, free = 0, []
        for l in clause:
            v = lit_var(l)
            if v in y_index:
                free.append((y_index[v], not lit_sign(l)))
            else:
                fixed |= columns[v] if lit_sign(l) else full ^ columns[v]
        clauses.append((fixed, free))

    for choice in itertools.product(*y_tables):
        for fixed, free in clauses:
            column = fixed
            for k, negated in free:
                column |= full ^ choice[k] if negated else choice[k]
            if column != full:
                break
        else:
            return True
    return False


def random_cnf(rng, num_vars=None, num_clauses=None, max_width=3):
    """Small random CNF for fuzz tests."""
    n = num_vars or rng.randint(1, 8)
    m = num_clauses or rng.randint(1, 30)
    cnf = CNF(num_vars=n)
    for _ in range(m):
        width = rng.randint(1, max_width)
        cnf.add_clause([rng.choice([1, -1]) * rng.randint(1, n)
                        for _ in range(width)])
    return cnf


def random_small_dqbf(rng, max_x=4, max_y=3, max_clauses=8):
    """Tiny random DQBF instance (small enough for brute force)."""
    nx = rng.randint(1, max_x)
    ny = rng.randint(1, max_y)
    xs = list(range(1, nx + 1))
    ys = list(range(nx + 1, nx + ny + 1))
    deps = {}
    for y in ys:
        k = rng.randint(0, nx)
        deps[y] = sorted(rng.sample(xs, k))
    cnf = CNF(num_vars=nx + ny)
    all_vars = xs + ys
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, 3)
        clause = [rng.choice([1, -1]) * rng.choice(all_vars)
                  for _ in range(width)]
        cnf.add_clause(clause)
    return DQBFInstance(xs, deps, cnf, name="fuzz")


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def rng():
    return random.Random(0xBEEF)


def paper_example():
    """Example 1 of the paper (§5), fully Tseitin-encoded.

    ϕ = (x1 ∨ y1) ∧ (y2 ↔ (y1 ∨ ¬x2)) ∧ (y3 ↔ (x2 ∨ x3)),
    H1 = {x1}, H2 = {x1, x2}, H3 = {x2, x3}.
    """
    from repro.parsing import parse_dqdimacs

    return parse_dqdimacs("""p cnf 6 7
a 1 2 3 0
d 4 1 0
d 5 1 2 0
d 6 2 3 0
1 4 0
-5 4 -2 0
-4 5 0
2 5 0
-6 2 3 0
-2 6 0
-3 6 0
""", name="paper-example-1")


@pytest.fixture
def paper_example_instance():
    return paper_example()


@pytest.fixture
def limitation_example_instance():
    """The §5 incompleteness example: ϕ = ¬(y1 ⊕ y2), H1 = {x1,x2},
    H2 = {x2,x3} — a True DQBF whose repair can stall."""
    from repro.parsing import parse_dqdimacs

    return parse_dqdimacs("""p cnf 5 2
a 1 2 3 0
d 4 1 2 0
d 5 2 3 0
4 -5 0
-4 5 0
""", name="paper-limitation")


@pytest.fixture
def false_instance():
    """∀x ∃^{∅}y. (y ↔ x): no constant function matches x."""
    from repro.parsing import parse_dqdimacs

    return parse_dqdimacs("""p cnf 2 2
a 1 0
d 2 0
2 -1 0
-2 1 0
""", name="false-xy")
