"""Incremental oracle sessions: the persistent solvers behind the loop.

The verify–repair loop is oracle-bound.  Rather than a new Tseitin
encoding and a new CDCL solver per call, which would discard learnt
clauses, VSIDS activity and phase state each time, every engine run
keeps **two long-lived solver sessions** (MiniSat-style incremental
solving under assumptions; Eén & Sörensson, "Temporal Induction by
Incremental SAT Solving", 2003):

* :class:`VerifierSession` — one persistent solver for the error
  formula ``E(X, Y') = ¬ϕ ∧ ⋀(y ↔ f_y)``.  ``¬ϕ`` is encoded once,
  permanently; each ``y ↔ f_y`` link lives in its own solver clause
  group.  When repair replaces ``f_y``, only that group is released and
  the new candidate's *new* subtree is encoded — the shared encoder's
  structural memo reuses every Tseitin variable of the untouched parts.
* :class:`MatrixSession` — one persistent solver over ``ϕ`` shared by
  every assumption-driven matrix oracle: the verification extension
  check, ``repair_iteration``'s per-candidate ``Gk`` checks, and
  preprocessing's unate checks.  Unate checks need ``¬ϕ`` of a second
  variable copy; that *dual rail* (primed copy + per-variable equality
  selectors) is built lazily inside one clause group and released the
  moment preprocessing ends, so the loop's extension/``Gk`` calls never
  pay for it.

Both sessions expose ``stats()`` so the engine can report per-oracle
call/conflict/encode-reuse counters.

Both sessions are written against the :class:`~repro.sat.backend.
SatBackend` protocol, not the concrete CDCL: ``Manthan3Config.
sat_backend`` selects the oracle implementation (the ``python`` backend
by default), and everything a session touches —
groups, assumptions, cores, budgets, the ``stats()`` counters — is
protocol surface, so an alternative backend drops in without changes
here.

Backend failure mid-run (:class:`~repro.sat.backend.
BackendUnavailableError`, ``MemoryError``) is survivable: both
sessions keep everything needed to rebuild — the instance/matrix, the
committed units, the hash-consed candidate exprs — so on failure they
walk ``Manthan3Config.sat_backend_fallbacks``, construct the next
backend in the chain, replay their live clause groups, and retry the
interrupted call.  The failed solver's RNG object is carried over, so
a backend that dies before consuming randomness hands the unconsumed
stream to its replacement.  Failovers are counted per session and
surface under ``stats["oracle"]["failovers"]``.
"""

from repro.formula.tseitin import SolverSink, TseitinEncoder, \
    negated_cnf_expr
from repro.sat.backend import BackendUnavailableError, make_backend
from repro.sat.solver import UNSAT
from repro.utils.rng import spawn

__all__ = ["VerifierSession", "MatrixSession", "build_sessions"]

#: Backend failures a session recovers from by rebuilding on the
#: fallback chain.  Everything else propagates unchanged.
_ORACLE_FAILURES = (BackendUnavailableError, MemoryError)


def build_sessions(ctx):
    """Attach the run's oracle sessions to the synthesis context, once.

    Builds one :class:`MatrixSession` and one :class:`VerifierSession`
    on the configured SAT backend, seeded from the context's dedicated
    oracle stream (salt 1, then salt 2), so the root
    sampler/preprocess/loop streams are untouched.  Every phase that
    queries a session calls this first; only the first call builds, so
    a pipeline that starts past the sample phase (or a hand-built
    context) gets the same sessions, and a context that already carries
    a matrix session keeps it.
    """
    if ctx.matrix_session is not None:
        return
    backend = ctx.config.sat_backend
    fallbacks = ctx.config.sat_backend_fallbacks
    ctx.matrix_session = MatrixSession(ctx.instance.matrix,
                                       rng=spawn(ctx.oracle_rng, 1),
                                       backend=backend,
                                       fallbacks=fallbacks)
    ctx.verifier_session = VerifierSession(ctx.instance,
                                           rng=spawn(ctx.oracle_rng, 2),
                                           backend=backend,
                                           fallbacks=fallbacks)
    ctx.sessions = [("matrix", ctx.matrix_session),
                    ("verifier", ctx.verifier_session)]


class VerifierSession:
    """Persistent E-solver across verification rounds.

    Parameters
    ----------
    instance:
        The :class:`~repro.dqbf.instance.DQBFInstance` under synthesis.
    rng:
        Seed or RNG for the solver's randomized heuristics (fixed for
        the session's lifetime).
    backend:
        :mod:`repro.sat.backend` name of the oracle implementation.
    fallbacks:
        Backend names tried, in order, when the live backend fails
        (see :meth:`_failover`); empty means fail fast.
    """

    def __init__(self, instance, rng=None, backend="python",
                 fallbacks=()):
        self.instance = instance
        self._fallbacks = list(fallbacks)
        self.failovers = 0
        self._retired_conflicts = 0
        self.calls = 0
        self.groups_released = 0
        self._install(backend, rng)

    def _install(self, backend, rng):
        """(Re)build the solver and its permanent ``¬ϕ`` encoding."""
        self.solver = make_backend(backend, rng=rng)
        self.solver.ensure_vars(self.instance.matrix.num_vars)
        self._sink = SolverSink(self.solver)
        self.encoder = TseitinEncoder(self._sink)
        # ¬ϕ never changes: encode it once, permanently.
        self.encoder.assert_expr(negated_cnf_expr(self.instance.matrix))
        self._groups = {}      # y -> live solver clause group
        self._current = {}     # y -> candidate expr currently linked

    def _failover(self, exc):
        """Swap the dead solver for the next fallback-chain backend.

        The replacement inherits the dead solver's RNG object (the
        unconsumed stream continues) and banks its conflict counter so
        :meth:`stats` stays monotone.  Candidate links are *not*
        replayed here — ``_install`` clears ``_current``, so the next
        :meth:`sync` re-encodes every candidate from the retained
        exprs.  Re-raises ``exc`` once the chain is exhausted.
        """
        rng = getattr(self.solver, "rng", None)
        try:
            self._retired_conflicts += self.solver.stats()["conflicts"]
        except Exception:
            pass
        while self._fallbacks:
            name = self._fallbacks.pop(0)
            try:
                self._install(name, rng)
            except BackendUnavailableError:
                continue
            self.failovers += 1
            return
        raise exc

    def sync(self, candidates):
        """Re-assert ``y ↔ f_y`` for every candidate that changed.

        Candidate expressions are hash-consed, so identity comparison
        detects change exactly; an unchanged candidate keeps its group
        and costs nothing.
        """
        for y in self.instance.existentials:
            expr = candidates[y]
            if self._current.get(y) is expr:
                continue
            old = self._groups.get(y)
            if old is not None:
                self.solver.release_group(old)
                self.groups_released += 1
            literal = self.encoder.encode(expr)
            group = self.solver.new_group()
            self.solver.add_clause((-y, literal), group=group)
            self.solver.add_clause((y, -literal), group=group)
            self._groups[y] = group
            self._current[y] = expr

    def solve(self, candidates, deadline=None, conflict_budget=None):
        """One verification oracle call against the current candidates.

        Backend failure anywhere in the call — during the incremental
        re-link or inside the solve itself — triggers a failover and a
        full retry: the rebuilt solver re-links every candidate, then
        the query runs again.
        """
        while True:
            try:
                self.sync(candidates)
                self.calls += 1
                return self.solver.solve(deadline=deadline,
                                         conflict_budget=conflict_budget)
            except _ORACLE_FAILURES as exc:
                self._failover(exc)

    @property
    def model(self):
        return self.solver.model

    def stats(self):
        counters = self.solver.stats()
        return {
            "calls": self.calls,
            "conflicts": counters["conflicts"] + self._retired_conflicts,
            "groups_released": self.groups_released,
            "encode_hits": self.encoder.hits,
            "encode_misses": self.encoder.misses,
            "failovers": self.failovers,
        }


class MatrixSession:
    """One persistent solver over ``ϕ`` for every matrix-side oracle.

    The extension check and the ``Gk`` repair checks are pure
    assumption queries against ``ϕ`` and share the solver as-is.  Unate
    checks additionally need ``¬ϕ`` over a primed variable copy; see
    :meth:`unate_check`.

    Unate constants found during preprocessing are committed with
    :meth:`add_unit` — sound for every later query because a unate
    output's constant, by definition, preserves (ex)tensibility of
    every X assignment, and because the committed value is exactly the
    retired candidate the rest of the loop carries for that variable.
    """

    def __init__(self, matrix, rng=None, backend="python", fallbacks=()):
        self.matrix = matrix
        self._fallbacks = list(fallbacks)
        self.failovers = 0
        self._retired_conflicts = 0
        self._units = []       # committed units, replayed on failover
        self.calls = {}
        self._install(backend, rng)

    def _install(self, backend, rng):
        """(Re)build the solver: ``ϕ`` plus every committed unit.

        The dual rail is *not* replayed — it is reset and lazily
        rebuilt by the next :meth:`unate_check`, exactly as on first
        use (and not at all if preprocessing is already past it).
        """
        self.solver = make_backend(backend, self.matrix, rng=rng)
        for literal in self._units:
            self.solver.add_clause((literal,))
        self._dual_group = None
        self._prime = None     # var -> primed copy var
        self._eq = None        # var -> equality selector var
        self._neg_out = None   # literal ⇔ ¬ϕ(primed vars)

    def _failover(self, exc):
        """Swap the dead solver for the next fallback-chain backend,
        carrying over its RNG object and banking its conflicts; see
        :meth:`VerifierSession._failover`."""
        rng = getattr(self.solver, "rng", None)
        try:
            self._retired_conflicts += self.solver.stats()["conflicts"]
        except Exception:
            pass
        while self._fallbacks:
            name = self._fallbacks.pop(0)
            try:
                self._install(name, rng)
            except BackendUnavailableError:
                continue
            self.failovers += 1
            return
        raise exc

    def _query(self, assumptions, purpose, deadline, conflict_budget):
        """One raw assumption query — no retry (callers own that)."""
        self.calls[purpose] = self.calls.get(purpose, 0) + 1
        return self.solver.solve(assumptions=assumptions, deadline=deadline,
                                 conflict_budget=conflict_budget)

    def solve(self, assumptions, purpose="matrix", deadline=None,
              conflict_budget=None):
        """Assumption query against ``ϕ``; ``purpose`` tags the stats.

        Retries through the fallback chain on backend failure — safe
        because extension/``Gk`` assumptions reference only matrix
        variables, which every rebuilt solver shares.  (Unate queries
        go through :meth:`unate_check`, whose retry also rebuilds the
        dual-rail assumptions.)
        """
        while True:
            try:
                return self._query(assumptions, purpose, deadline,
                                   conflict_budget)
            except _ORACLE_FAILURES as exc:
                self._failover(exc)

    @property
    def model(self):
        return self.solver.model

    @property
    def core(self):
        return self.solver.core

    def add_unit(self, literal):
        """Permanently commit a unit (unate constants).

        The unit is recorded before it reaches the solver, so a
        failover mid-add still replays it — ``_install`` asserts the
        full committed list on the replacement backend.
        """
        self._units.append(literal)
        try:
            self.solver.add_clause((literal,))
        except _ORACLE_FAILURES as exc:
            self._failover(exc)

    # ------------------------------------------------------------------
    # dual rail (unate checks)
    # ------------------------------------------------------------------
    def _ensure_dual(self):
        """Build the primed copy apparatus, once, inside one group.

        For every matrix variable ``v`` allocate a primed twin ``v'``
        and an equality selector ``e_v`` with ``e_v → (v ↔ v')``, then
        Tseitin-encode ``¬ϕ`` over the primed variables to a literal
        ``neg_out``.  A unate check is then a single assumption query —
        no formula construction per check.
        """
        if self._prime is not None:
            return
        solver = self.solver
        group = solver.new_group()
        num_vars = self.matrix.num_vars
        self._prime = {v: solver.reserve_var()
                       for v in range(1, num_vars + 1)}
        self._eq = {v: solver.reserve_var()
                    for v in range(1, num_vars + 1)}
        for v in range(1, num_vars + 1):
            vp, ev = self._prime[v], self._eq[v]
            solver.add_clause((-ev, -v, vp), group=group)
            solver.add_clause((-ev, v, -vp), group=group)
        primed = self.matrix.relabeled(self._prime)
        sink = SolverSink(solver, group=group)
        encoder = TseitinEncoder(sink)
        self._neg_out = encoder.encode(negated_cnf_expr(primed))
        self._dual_group = group

    def unate_check(self, y, positive, deadline=None, conflict_budget=None):
        """Is ``ϕw|_{y=¬v} ∧ ¬(ϕw|_{y=v})`` UNSAT?  (``v = positive``.)

        ``ϕw`` is ``ϕ`` plus the units committed so far — the primed
        side sees them through the assumed equality selectors, so each
        check sees every constant fixed before it (order-dependent, as
        in Manthan).  Returns ``True`` only on a definitive UNSAT (an
        exhausted budget is *not* unate).

        The retry loop is unate-specific: the query's assumptions name
        dual-rail variables that a failover invalidates, so each retry
        re-runs ``_ensure_dual`` (a fresh build on the rebuilt solver)
        and derives the assumptions anew.
        """
        while True:
            try:
                self._ensure_dual()
                assumptions = [self._neg_out]
                assumptions += [self._eq[v]
                                for v in range(1, self.matrix.num_vars + 1)
                                if v != y]
                if positive:
                    assumptions += [-y, self._prime[y]]
                else:
                    assumptions += [y, -self._prime[y]]
                status = self._query(assumptions, "unate", deadline,
                                     conflict_budget)
            except _ORACLE_FAILURES as exc:
                self._failover(exc)
                continue
            return status == UNSAT

    def retire_dual(self):
        """Release the unate apparatus once preprocessing is over, so
        the loop's extension/``Gk`` queries never carry its clauses."""
        if self._dual_group is None:
            return
        try:
            self.solver.release_group(self._dual_group)
        except _ORACLE_FAILURES as exc:
            self._failover(exc)  # the rebuilt solver carries no dual rail
        else:
            self._dual_group = None

    def stats(self):
        out = {"calls_%s" % k: v for k, v in sorted(self.calls.items())}
        out["conflicts"] = (self.solver.stats()["conflicts"]
                            + self._retired_conflicts)
        out["failovers"] = self.failovers
        return out
