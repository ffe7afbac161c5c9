"""Independent Henkin-certificate checking.

Lemma 1 (paper §5): ``f`` is a Henkin function vector iff
``¬ϕ(X,Y) ∧ (Y ↔ f)`` is UNSAT.  The checker additionally enforces the
*syntactic* side condition that each ``f_i`` only mentions variables from
``H_i`` — engines must deliver functions already substituted down to the
dependency sets (Algorithm 1, line 19).

This module is deliberately independent of the engines: it rebuilds the
verification formula from scratch so that engine bugs cannot certify
themselves, and it solves it on the Python CDCL core
(:class:`~repro.sat.solver.ReferenceSolver`), not on the compiled core
the engines run on, so a defect in that core cannot either.
"""

from repro.formula.cnf import CNF
from repro.formula.tseitin import TseitinEncoder, negated_cnf_expr
from repro.sat.solver import ReferenceSolver, SAT, UNSAT


class CertificateResult:
    """Outcome of a certificate check.

    ``valid`` is True iff the vector is a Henkin function vector.  On
    failure, ``reason`` explains why and — for semantic failures —
    ``counterexample`` holds an X-assignment under which the functions
    violate ϕ.
    """

    def __init__(self, valid, reason="", counterexample=None):
        self.valid = valid
        self.reason = reason
        self.counterexample = counterexample

    def __bool__(self):
        return self.valid

    def __repr__(self):
        return "CertificateResult(valid=%r, reason=%r)" % (self.valid,
                                                           self.reason)


def check_henkin_vector(instance, functions, deadline=None,
                        conflict_budget=None, rng=None):
    """Check a claimed Henkin vector against a DQBF instance.

    Parameters
    ----------
    instance:
        :class:`~repro.dqbf.instance.DQBFInstance`.
    functions:
        ``{y: BoolExpr}`` — one function per existential of the instance.
    """
    missing = [y for y in instance.existentials if y not in functions]
    if missing:
        return CertificateResult(False, "missing functions for %r" % missing)

    for y in instance.existentials:
        support = functions[y].support()
        illegal = support - instance.dependencies[y]
        if illegal:
            return CertificateResult(
                False,
                "f_%d mentions %r outside its dependency set" %
                (y, sorted(illegal)))

    cnf, y_lits = encode_verification_formula(instance, functions)
    solver = ReferenceSolver(cnf, rng=rng)
    status = solver.solve(deadline=deadline, conflict_budget=conflict_budget)
    if status == UNSAT:
        return CertificateResult(True)
    if status == SAT:
        cex = {x: solver.model[x] for x in instance.universals}
        return CertificateResult(
            False, "functions violate the matrix", counterexample=cex)
    return CertificateResult(False, "verification budget exhausted")


def check_henkin_vector_incremental(instance, functions, deadline=None,
                                    conflict_budget=None, rng=None):
    """:func:`check_henkin_vector`, decomposed for speed.

    ``¬ϕ ∧ (Y ↔ f)`` is satisfiable iff some matrix clause ``c`` has
    ``¬c ∧ (Y ↔ f)`` satisfiable, so instead of one monolithic solve
    over the Tseitin encoding of the full disjunction ``∨ ¬c``, this
    asserts the function definitions once and checks every clause as an
    assumption set (``¬c`` is a conjunction of literals) against one
    persistent solver.  Each check is heavily constrained — all of the
    clause's literals are fixed — and the learnt clauses accumulate
    across checks, the same effect that makes the engines' incremental
    verification sessions cheap.  Verdicts (and counterexamples on
    failure) agree with :func:`check_henkin_vector`; only the wall time
    differs, which is why the solution cache re-certifies hits through
    this path.  ``conflict_budget`` bounds the *total* conflicts across
    all clause checks.
    """
    missing = [y for y in instance.existentials if y not in functions]
    if missing:
        return CertificateResult(False, "missing functions for %r" % missing)

    for y in instance.existentials:
        support = functions[y].support()
        illegal = support - instance.dependencies[y]
        if illegal:
            return CertificateResult(
                False,
                "f_%d mentions %r outside its dependency set" %
                (y, sorted(illegal)))

    cnf = CNF(num_vars=instance.matrix.num_vars)
    encoder = TseitinEncoder(cnf)
    for y in instance.existentials:
        encoder.assert_iff(y, functions[y])
    solver = ReferenceSolver(cnf, rng=rng)
    for clause in instance.matrix:
        remaining = None
        if conflict_budget is not None:
            remaining = conflict_budget - solver.conflicts
            if remaining <= 0:
                return CertificateResult(False,
                                         "verification budget exhausted")
        status = solver.solve(assumptions=[-lit for lit in clause],
                              deadline=deadline, conflict_budget=remaining)
        if status == SAT:
            cex = {x: solver.model[x] for x in instance.universals}
            return CertificateResult(
                False, "functions violate the matrix", counterexample=cex)
        if status != UNSAT:
            return CertificateResult(False,
                                     "verification budget exhausted")
    return CertificateResult(True)


def encode_verification_formula(instance, functions):
    """Build ``E(X, Y') = ¬ϕ(X, Y') ∧ (Y' ↔ f(X))`` as a CNF.

    Here the matrix's own Y variables play the role of Y′: they are
    constrained to equal the function outputs, and ¬ϕ is Tseitin-encoded
    over them.  Returns ``(cnf, {y: literal_of_y})``.
    """
    cnf = CNF(num_vars=instance.matrix.num_vars)
    encoder = TseitinEncoder(cnf)
    encoder.assert_expr(negated_cnf_expr(instance.matrix))
    y_lits = {}
    for y in instance.existentials:
        encoder.assert_iff(y, functions[y])
        y_lits[y] = y
    return cnf, y_lits


def check_false_witness(instance, x_assignment, deadline=None,
                        conflict_budget=None, rng=None):
    """Validate a falsity witness: ``ϕ ∧ (X ↔ x*)`` must be UNSAT.

    A DQBF is False whenever some universal assignment admits no
    existential extension at all (the Algorithm 1 line-13 case); this
    checks a claimed such assignment independently of any engine.
    """
    missing = [x for x in instance.universals if x not in x_assignment]
    if missing:
        return CertificateResult(False,
                                 "witness misses universals %r" % missing)
    solver = ReferenceSolver(instance.matrix, rng=rng)
    assumptions = [x if x_assignment[x] else -x
                   for x in instance.universals]
    status = solver.solve(assumptions=assumptions, deadline=deadline,
                          conflict_budget=conflict_budget)
    if status == UNSAT:
        return CertificateResult(True)
    if status == SAT:
        return CertificateResult(False,
                                 "the witness has a Y extension")
    return CertificateResult(False, "witness check budget exhausted")


def counterexample_to_vector(instance, functions, model):
    """Expand a SAT model of the verification formula into the paper's
    counterexample triple ``σ = π[X] + π[Y] + δ[Y′]`` *inputs*.

    Returns ``(x_assignment, y_prime_values)`` where ``y_prime_values`` is
    what the candidate vector currently outputs on ``x_assignment`` —
    exactly the `δ` the repair loop consumes.
    """
    x_assignment = {x: model[x] for x in instance.universals}
    y_prime = {y: functions[y].evaluate(model) for y in instance.existentials}
    return x_assignment, y_prime
