"""Preprocessing: unate constants and unique-definition extraction.

Mirrors the paper implementation's use of preprocessing before learning:

* **Unates** (inherited from Manthan): if flipping ``yi`` from 0 to 1 can
  never falsify ϕ (positive unate), the constant function 1 is a correct
  Henkin function for ``yi`` (constants trivially satisfy any dependency
  set); dually for negative unates.  Each check is one assumption query
  against the engine's persistent ϕ-solver, and fixed units are
  committed to it so later checks benefit.
* **Unique definitions** (the UNIQUE component): syntactic gate matching
  first, then Padoa's method + truth-table extraction for small
  dependency sets.  A definition whose support fits inside ``H_i`` is a
  final function — it is excluded from learning and repair.
"""

from repro.formula import boolfunc as bf
from repro.core.sessions import build_sessions
from repro.definability.gates import find_gate_definitions
from repro.definability.padoa import is_uniquely_defined, extract_definition
from repro.utils.rng import spawn


def run_preprocess(ctx):
    """Pipeline phase entry: preprocess against the synthesis context.

    Fixes what preprocessing can (``ctx.fixed``) and records the
    per-mechanism counts under ``fixed_*`` stats keys.  Honors the
    context's active (possibly phase-scoped) deadline and conflict
    budget.  The kernel fills the accumulators *in place*, so a budget
    that strikes mid-pass still leaves everything fixed so far on the
    context — a truncated phase loses nothing it accumulated.
    """
    build_sessions(ctx)
    fixed = {}
    stats = {}
    try:
        preprocess(ctx.instance, ctx.active_config, ctx.matrix_session,
                   deadline=ctx.deadline, rng=spawn(ctx.rng, 2),
                   fixed=fixed, stats=stats)
    finally:
        ctx.fixed = fixed
        ctx.stats.update({"fixed_" + k: v for k, v in stats.items()})


class PreprocessOutcome:
    """Functions fixed before learning.

    ``fixed`` maps existential variables to final
    :class:`~repro.formula.boolfunc.BoolExpr` functions; ``stats`` counts
    what each mechanism contributed.
    """

    def __init__(self, fixed, stats):
        self.fixed = fixed
        self.stats = stats


def detect_unates(instance, matrix_session, deadline=None,
                  conflict_budget=None, out=None):
    """Find unate existentials; returns ``{y: TRUE|FALSE}``.

    ``yi`` is positive unate iff ``ϕ|_{yi=0} ∧ ¬ϕ|_{yi=1}`` is UNSAT —
    then ``fi = 1``; negative unate dually with ``fi = 0``.  Each check
    is an assumption query against ``matrix_session``'s persistent
    ϕ-solver (its lazily-built dual rail stands in for the cofactor
    construction), and fixed values are committed to it as permanent
    units, so subsequent checks see them (order-dependent, as in
    Manthan).

    ``out`` (a dict) is an optional in-place accumulator: unates found
    before a SAT call exhausts its budget survive the unwind, which is
    what lets a phase-budgeted pipeline keep a truncated pass's work.
    """
    fixed = {} if out is None else out
    for y in instance.existentials:
        if deadline is not None and deadline.expired():
            break
        for value, constant in ((True, bf.TRUE), (False, bf.FALSE)):
            if matrix_session.unate_check(y, value, deadline=deadline,
                                          conflict_budget=conflict_budget):
                fixed[y] = constant
                matrix_session.add_unit(y if value else -y)
                break
    return fixed


def extract_unique_functions(instance, skip=(), max_table_bits=8,
                             deadline=None, conflict_budget=None, rng=None,
                             out=None, stats=None):
    """Definitions for uniquely defined existentials (gates, then Padoa).

    Gate definitions may reference other existential variables (Tseitin
    encodings of circuits are definition DAGs): a definition for ``y`` is
    accepted when every input is either in ``H_y``, an already-accepted
    definition with smaller dependency set, or a *learnable* existential
    ``yj`` with ``Hj ⊆ Hy`` (the final substitution grounds it out).
    Mutually-referencing definitions are left to the learner, which keeps
    the accepted set acyclic by construction.

    ``out`` / ``stats`` are optional in-place accumulators (see
    :func:`detect_unates`): definitions accepted before a budget
    exhausts survive the unwind.
    """
    fixed = {} if out is None else out
    stats = {"gates": 0, "padoa": 0} if stats is None else stats
    stats.setdefault("gates", 0)
    stats.setdefault("padoa", 0)
    skip = set(skip)

    candidates_set = set(instance.existentials) - skip
    gate_defs = find_gate_definitions(instance.matrix,
                                      candidates=candidates_set)

    def input_ok(y, v):
        hy = instance.dependencies[y]
        if v in hy:
            return True
        if v not in instance.dependencies:      # some other universal
            return False
        if not (instance.dependencies[v] <= hy):
            return False
        if v in fixed:
            return True                          # accepted definition
        return v not in gate_defs                # plain learnable output

    # Alternate the syntactic fixpoint with Padoa extraction: a gate
    # definition can become acceptable once the existential it references
    # is itself extracted semantically.
    not_unique = set()  # Padoa verdicts are matrix properties: cache them.
    progressed = True
    while progressed:
        progressed = False
        changed = True
        while changed:
            changed = False
            for y, gate in gate_defs.items():
                if y in fixed:
                    continue
                if all(input_ok(y, v) for v in gate.input_vars):
                    fixed[y] = gate.expr
                    stats["gates"] += 1
                    changed = True
                    progressed = True
        for y in instance.existentials:
            if y in fixed or y in skip or y in not_unique:
                continue
            deps = instance.dependencies[y]
            if len(deps) > max_table_bits:
                continue
            if deadline is not None and deadline.expired():
                return fixed, stats
            unique = is_uniquely_defined(instance.matrix, y, deps,
                                         deadline=deadline,
                                         conflict_budget=conflict_budget,
                                         rng=rng)
            if unique:
                expr = extract_definition(instance.matrix, y, deps,
                                          max_table_bits=max_table_bits,
                                          deadline=deadline,
                                          conflict_budget=conflict_budget,
                                          rng=rng)
                if expr is not None:
                    fixed[y] = expr
                    stats["padoa"] += 1
                    progressed = True
            else:
                not_unique.add(y)
    return fixed, stats


def preprocess(instance, config, matrix_session, deadline=None, rng=None,
               fixed=None, stats=None):
    """Run the configured preprocessing passes; returns
    :class:`PreprocessOutcome`.

    The unate checks run on ``matrix_session``, the engine's persistent
    ϕ-solver; its dual-rail apparatus is retired here, the moment the
    unate pass ends — even when that pass unwinds on an exhausted
    budget — so the verify–repair loop never carries those clauses.

    ``fixed`` / ``stats`` are optional in-place accumulators: when a
    SAT call exhausts its budget mid-pass, everything fixed up to that
    point is already merged into them before the exception propagates
    (the staged pipeline's phase truncation relies on this).
    """
    fixed = {} if fixed is None else fixed
    stats = {} if stats is None else stats
    for key in ("unates", "gates", "padoa"):
        stats.setdefault(key, 0)
    if config.use_unate_detection:
        unates = {}
        try:
            detect_unates(instance, matrix_session, deadline=deadline,
                          conflict_budget=config.sat_conflict_budget,
                          out=unates)
        finally:
            fixed.update(unates)
            stats["unates"] = len(unates)
            matrix_session.retire_dual()
    if config.use_unique_extraction:
        # The unique pass gets its own accumulator: ``input_ok`` treats
        # membership in its dict as "accepted definition", which must
        # not include the unate constants.
        unique = {}
        unique_stats = {}
        try:
            extract_unique_functions(
                instance, skip=fixed,
                max_table_bits=config.max_unique_table_bits,
                deadline=deadline,
                conflict_budget=config.sat_conflict_budget,
                rng=rng, out=unique, stats=unique_stats)
        finally:
            fixed.update(unique)
            stats["gates"] = unique_stats.get("gates", 0)
            stats["padoa"] = unique_stats.get("padoa", 0)
    return PreprocessOutcome(fixed, stats)
