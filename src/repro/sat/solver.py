"""A CDCL SAT solver with assumptions and UNSAT-core extraction.

Design notes
------------
* External interface uses DIMACS literals (non-zero ints); internally,
  literal ``l`` indexes watch lists at ``2*v`` (positive) / ``2*v + 1``
  (negative) where ``v = |l|``.
* First-UIP learning with basic (non-recursive) clause minimization.
* VSIDS via a lazily-cleaned binary heap; activities rescaled on overflow.
* Phase saving with configurable default polarity; both polarity and
  branching can be randomized, which the sampler uses to draw diverse
  models.
* Assumption solving follows MiniSat: assumptions are replayed as the
  first decisions; a falsified assumption triggers final-conflict analysis
  that produces a core — the subset of assumptions sufficient for UNSAT.
* Budgets: ``conflict_budget`` and a wall-clock ``deadline`` make
  :meth:`Solver.solve` return :data:`UNKNOWN` instead of diverging, which
  the engines surface as a timeout.
* **Clause groups** make the solver incrementally retractable: a clause
  added with ``group=g`` carries the negation of the group's *selector*
  literal, so it constrains the search only while the selector is assumed
  — which :meth:`Solver.solve` does automatically for every live group.
  :meth:`release_group` asserts the unit that permanently satisfies (and
  physically detaches) a group's clauses, while every learnt clause and
  all heuristic state survive across calls; that is what lets the
  synthesis loop keep one solver per oracle instead of rebuilding.
  Selector literals never escape: models and cores are masked before
  they reach callers.
* **Hot loop.** ``_propagate``, ``_analyze``, ``_cancel_until`` and
  ``_search`` work on local aliases and read ``assigns`` inline: literal
  ``l`` is true iff ``assigns[|l|] is (l > 0)``.  The invariant is order
  preservation: decisions, watch swaps, watch-list appends and heap
  pushes happen in the order of the plain formulation, so models, cores,
  counters and every synthesis trajectory stay bit-identical (pinned by
  ``tests/sat/test_solver_golden.py``).  No blocker literals (Chu,
  Harwood & Stuckey, JSAT 2009): a clause kept on its list by a true
  blocker changes the watch-list order, and with it the trajectory.
* **Two cores, one trajectory.**  :class:`Solver` is a facade over a
  *core* that holds the state and runs the search: the compiled core
  (``_cdcl.c``, a CPython extension) when it built, else
  :class:`PythonCore`, the reference it is a port of.  ``solve`` and
  ``add_clause`` stay methods of :class:`Solver` (tracing hooks them
  there) and delegate; ``add_cnf`` calls ``self.add_clause`` per clause.
  The compiled core is trajectory-exact — same decisions, watch-list
  order, heap order, learnt clauses, models, cores and counters — which
  takes, point by point:

  - the VSIDS heap: ``heapq``'s exact ``_siftdown``/``_siftup`` over
    ``(-activity, var)``, activity compared first, then var; stale
    entries re-pushed lazily in ``_pick_branch_var``;
  - IEEE doubles compiled with ``-ffp-contract=off`` and no fast-math,
    for ``var_inc /= var_decay``, the bumps and the 1e100/1e-100
    rescale;
  - ``_reduce_db``: a *stable* sort by activity; locked and binary
    learnts survive;
  - ``max_learnts`` from ``len(self.clauses)``, which still counts
    released clauses until ``release_group``'s lazy compaction;
  - ``release_group`` removes the *first* occurrence from each watch
    list; watch swaps happen in place in ``lits[0]``/``lits[1]``;
  - callbacks into Python exactly where this core makes them, in the
    same order: ``rng.random()``, ``rng.choice(free)``,
    ``polarity_weights.get(v, 0.5)`` and ``deadline.expired()``.  At
    every point where a deadline could be checked (each 256th conflict,
    each restart) the compiled core also runs pending signal handlers
    and offers the GIL to other threads; exceptions from callbacks and
    handlers propagate unchanged.

  ``tests/sat/test_solver_golden.py`` pins both cores to committed
  trajectories, and ``tests/sat/test_core_lockstep.py`` runs manthan3
  with both cores side by side, comparing them after every call.
* **Build and fallback.**  Importing this module compiles ``_cdcl.c``
  with the interpreter's compiler and headers (see ``_native.py``) and
  caches the object in ``__pycache__``, keyed by a hash of the source,
  the ABI tag and the flags; later imports only load it.  If the build
  or the load fails, one ``RuntimeWarning`` names the error and every
  solver runs on :class:`PythonCore`.  :data:`CORE` says which core is
  active.  Certification does not use the compiled core at all:
  :class:`ReferenceSolver` pins the Python core, so a defect in the
  compiled core cannot certify its own answers.
"""

import warnings
from heapq import heappop, heappush
from operator import attrgetter

from repro.utils.errors import ReproError
from repro.utils.rng import make_rng

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


class _Clause:
    """A clause in the solver database (problem or learnt)."""

    __slots__ = ("lits", "learnt", "activity", "deleted")

    def __init__(self, lits, learnt=False):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.deleted = False


def _knob(name):
    """A :class:`Solver` property that reads and assigns the core's."""
    return property(attrgetter("_core." + name),
                    lambda self, value: setattr(self._core, name, value))


def _luby(y, x):
    """The Luby restart sequence value ``luby(y, x)`` (MiniSat's version)."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return y ** seq


class PythonCore:
    """The Python CDCL core: the reference the compiled core is checked
    against, and the oracle certification uses.

    Callers go through :class:`Solver`; the positional arguments are the
    knobs :class:`Solver` documents, with ``rng`` already a
    ``random.Random``.
    """

    def __init__(self, rng, polarity_mode, random_var_freq, default_phase,
                 polarity_weights):
        self.rng = rng
        self.polarity_mode = polarity_mode
        self.random_var_freq = random_var_freq
        self.default_phase = default_phase
        # var -> probability of branching True (mode "weighted"); the
        # sampler adapts these to bias the distribution of drawn models.
        self.polarity_weights = polarity_weights

        self.num_vars = 0
        self.assigns = [None]          # var -> None/True/False, 1-based
        self.level = [0]
        self.reason = [None]
        self.activity = [0.0]
        self.phase = [default_phase]
        self.watches = [[], []]        # lit index -> list of clauses

        self.clauses = []              # problem clauses
        self.learnts = []
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.ok = True                 # False once root-level conflict found

        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self._heap = []                # lazy (-activity, var) entries
        self._in_heap = [False]

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

        self.model = None              # dict var -> bool after SAT
        self.core = None               # list of assumption lits after UNSAT

        self._group_selector = {}      # group id -> selector var
        self._selector_group = {}      # selector var -> group id
        self._group_clauses = {}       # group id -> [_Clause, ...]
        self._released = set()
        self._next_group = 0
        self._dead_clauses = 0         # released clauses awaiting compaction

    # ------------------------------------------------------------------
    # variable / clause management
    # ------------------------------------------------------------------
    def ensure_vars(self, n):
        """Grow the variable space to at least ``n`` variables."""
        while self.num_vars < n:
            self.num_vars += 1
            self.assigns.append(None)
            self.level.append(0)
            self.reason.append(None)
            self.activity.append(0.0)
            self.phase.append(self.default_phase)
            self.watches.append([])
            self.watches.append([])
            self._in_heap.append(True)
            heappush(self._heap, (0.0, self.num_vars))

    def reserve_var(self):
        """Allocate and return one fresh variable id.

        The incremental Tseitin sink uses this to grow the solver's
        variable space in lock-step with its encoding.
        """
        self.ensure_vars(self.num_vars + 1)
        return self.num_vars

    # ------------------------------------------------------------------
    # clause groups (assumption-guarded incremental interface)
    # ------------------------------------------------------------------
    def new_group(self):
        """Open a clause group; returns its id.

        Clauses added with ``group=id`` are active on every
        :meth:`solve` until :meth:`release_group` retires them.  The
        selector is allocated from the shared variable space, so reserve
        the problem variables (:meth:`ensure_vars`) *before* opening
        groups; :meth:`add_clause` rejects literals that collide with a
        selector.
        """
        selector = self.reserve_var()
        group = self._next_group
        self._next_group += 1
        self._group_selector[group] = selector
        self._selector_group[selector] = group
        self._group_clauses[group] = []
        return group

    def release_group(self, group):
        """Permanently retire a group: its clauses stop constraining
        anything, now and on every future :meth:`solve`.

        Asserts the root unit falsifying the group's selector (which
        satisfies every clause of the group, including any learnt clause
        derived from them) and physically detaches the group's problem
        clauses from the watch lists.  Only call between ``solve()``
        calls — the trail must be at decision level 0.
        """
        if group not in self._group_selector:
            raise ReproError("unknown clause group %r" % (group,))
        if group in self._released:
            return
        self._released.add(group)
        selector = self._group_selector[group]
        clauses = self._group_clauses.pop(group)
        if clauses:
            for clause in clauses:
                clause.deleted = True
                for lit in clause.lits[:2]:
                    watchers = self.watches[self._widx(-lit)]
                    try:
                        watchers.remove(clause)
                    except ValueError:  # pragma: no cover - invariant
                        pass
            # Unhooked clauses are inert (the root unit below satisfies
            # them); compact the DB list lazily rather than rebuilding
            # it on every release — releases sit on the loop's hot path.
            self._dead_clauses += len(clauses)
            if self._dead_clauses > 64 and \
                    self._dead_clauses * 4 >= len(self.clauses):
                self.clauses = [c for c in self.clauses if not c.deleted]
                self._dead_clauses = 0
        # Assert the unit ¬selector directly (add_clause rejects literals
        # that touch selector variables on purpose).
        if self.ok and self._value(-selector) is not True:
            if not self._enqueue(-selector, None):  # pragma: no cover
                self.ok = False
            else:
                self.ok = self._propagate() is None

    def add_clause(self, lits, group=None):
        """Add a problem clause; returns ``False`` on root-level conflict.

        With ``group=g`` the clause is guarded by the group's selector:
        it constrains the search only while the group is live, and
        :meth:`release_group` retires it.
        """
        if not self.ok:
            return False
        lits = [int(l) for l in lits]
        selector_group = self._selector_group
        if selector_group:
            for l in lits:
                if abs(l) in selector_group:
                    raise ReproError(
                        "literal %d references a group selector; reserve "
                        "problem variables before opening groups" % l)
        if group is not None:
            if group not in self._group_selector:
                raise ReproError("unknown clause group %r" % (group,))
            if group in self._released:
                raise ReproError("clause group %r is released" % (group,))
            lits.append(-self._group_selector[group])
        self.ensure_vars(max(map(abs, lits), default=0))
        # Root-level simplification: drop falsified lits, detect tautology.
        assigns, level = self.assigns, self.level
        seen = set()
        out = []
        for l in lits:
            if -l in seen:
                return True  # tautology: trivially satisfied
            if l in seen:
                continue
            v = l if l > 0 else -l
            value = assigns[v]
            if value is not None and level[v] == 0:
                if value is (l > 0):
                    return True
                continue
            seen.add(l)
            out.append(l)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
                return False
            self.ok = self._propagate() is None
            return self.ok
        clause = _Clause(out, learnt=False)
        self.clauses.append(clause)
        self._watch(clause)
        if group is not None:
            self._group_clauses[group].append(clause)
        return True

    def _watch(self, clause):
        # Watchers of literal l are registered under _widx(-l).
        l0, l1 = clause.lits[0], clause.lits[1]
        self.watches[2 * l0 + 1 if l0 > 0 else -2 * l0].append(clause)
        self.watches[2 * l1 + 1 if l1 > 0 else -2 * l1].append(clause)

    @staticmethod
    def _widx(lit):
        v = lit if lit > 0 else -lit
        return 2 * v + (0 if lit > 0 else 1)

    # ------------------------------------------------------------------
    # assignment primitives
    # ------------------------------------------------------------------
    def _value(self, lit):
        v = self.assigns[abs(lit)]
        return v if v is None or lit > 0 else not v

    def _enqueue(self, lit, reason):
        v = lit if lit > 0 else -lit
        value = self.assigns[v]
        if value is not None:
            return value is (lit > 0)
        self.assigns[v] = lit > 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _cancel_until(self, target_level):
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        trail, assigns, phase = self.trail, self.assigns, self.phase
        reason, activity = self.reason, self.activity
        in_heap, heap = self._in_heap, self._heap
        bound = trail_lim[target_level]
        for lit in reversed(trail[bound:]):
            v = lit if lit > 0 else -lit
            phase[v] = assigns[v]
            assigns[v] = None
            reason[v] = None
            if not in_heap[v]:
                in_heap[v] = True
                heappush(heap, (-activity[v], v))
        del trail[bound:]
        del trail_lim[target_level:]
        self.qhead = len(trail)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self):
        """Unit propagation; returns the conflicting clause or ``None``."""
        trail, assigns, watches = self.trail, self.assigns, self.watches
        level, reason = self.level, self.reason
        decision_level = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = -p
            # Clauses watching ¬p (registered under _widx(p)) may now be unit.
            idx = 2 * p if p > 0 else 1 - 2 * p
            ws = watches[idx]
            kept = []
            for i, clause in enumerate(ws):
                lits = clause.lits
                # Ensure the falsified watched literal sits at index 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                first_value = assigns[first if first > 0 else -first]
                if first_value is (first > 0):
                    kept.append(clause)
                    continue
                # Look for a new watch.
                for k in range(2, len(lits)):
                    l = lits[k]
                    if assigns[l if l > 0 else -l] is not (l < 0):
                        lits[1], lits[k] = l, lits[1]
                        watches[2 * l + 1 if l > 0 else -2 * l].append(clause)
                        break
                else:
                    kept.append(clause)
                    if first_value is not None:
                        # Conflict: restore remaining watchers and bail out.
                        kept.extend(ws[i + 1:])
                        watches[idx] = kept
                        self.propagations += qhead - start
                        self.qhead = len(trail)
                        return clause
                    v = first if first > 0 else -first
                    assigns[v] = first > 0
                    level[v] = decision_level
                    reason[v] = clause
                    trail.append(first)
            watches[idx] = kept
        self.propagations += qhead - start
        self.qhead = qhead
        return None

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict):
        """First-UIP analysis: returns ``(learnt_lits, backtrack_level)``
        with the asserting literal first in ``learnt_lits``."""
        level, reasons, trail = self.level, self.reason, self.trail
        bump_var = self._bump_var
        decision_level = len(self.trail_lim)
        learnt = [None]
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p = None
        reason_lits = conflict.lits
        index = len(trail)

        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    bump_var(v)
                    if level[v] >= decision_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Walk the trail back to the next marked literal.
            while True:
                index -= 1
                p = trail[index]
                v = p if p > 0 else -p
                if seen[v]:
                    break
            counter -= 1
            seen[v] = False
            if counter == 0:
                learnt[0] = -p
                break
            reason = reasons[v]
            reason_lits = reason.lits if reason is not None else ()
            if reason is not None and reason.learnt:
                self._bump_clause(reason)

        # Minimize: drop literals whose reason is subsumed by the clause.
        marked = set(abs(l) for l in learnt[1:])
        minimized = [learnt[0]]
        for l in learnt[1:]:
            reason = reasons[abs(l)]
            if reason is None or not all(abs(q) in marked or level[abs(q)] == 0
                                         for q in reason.lits if q != -l):
                minimized.append(l)
        learnt = minimized

        if len(learnt) == 1:
            bt_level = 0
        else:
            # Second-highest decision level in the clause.
            max_i = 1
            for i in range(2, len(learnt)):
                if level[abs(learnt[i])] > level[abs(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = level[abs(learnt[1])]
        return learnt, bt_level

    def _analyze_final(self, p):
        """Compute the subset of assumptions responsible for falsifying
        assumption literal ``p`` (MiniSat's ``analyzeFinal``)."""
        core = [p]
        if not self.trail_lim:
            return core
        seen = [False] * (self.num_vars + 1)
        seen[abs(p)] = True
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            v = abs(lit)
            if not seen[v]:
                continue
            reason = self.reason[v]
            if reason is None:
                # A decision at an assumption level *is* an assumption.
                core.append(lit)
            else:
                for q in reason.lits:
                    if self.level[abs(q)] > 0:
                        seen[abs(q)] = True
            seen[v] = False
        return core

    # ------------------------------------------------------------------
    # heuristics
    # ------------------------------------------------------------------
    def _bump_var(self, v):
        self.activity[v] += self.var_inc
        if self.activity[v] > _RESCALE_LIMIT:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= _RESCALE_FACTOR
            self.var_inc *= _RESCALE_FACTOR
        heappush(self._heap, (-self.activity[v], v))
        self._in_heap[v] = True

    def _bump_clause(self, clause):
        clause.activity += self.cla_inc
        if clause.activity > _RESCALE_LIMIT:
            for c in self.learnts:
                c.activity *= _RESCALE_FACTOR
            self.cla_inc *= _RESCALE_FACTOR

    def _pick_branch_var(self):
        assigns = self.assigns
        if self.random_var_freq > 0 and self.rng.random() < self.random_var_freq:
            free = [v for v in range(1, self.num_vars + 1)
                    if assigns[v] is None]
            if free:
                return self.rng.choice(free)
        heap, in_heap, activity = self._heap, self._in_heap, self.activity
        while heap:
            neg_act, v = heappop(heap)
            in_heap[v] = False
            if assigns[v] is not None:
                continue
            if -neg_act != activity[v]:
                # Stale entry: reinsert with the fresh activity and retry.
                heappush(heap, (-activity[v], v))
                in_heap[v] = True
                continue
            return v
        return next((v for v in range(1, self.num_vars + 1)
                     if assigns[v] is None), None)

    def _pick_polarity(self, v):
        if self.polarity_mode == "random":
            return self.rng.random() < 0.5
        if self.polarity_mode == "weighted":
            return self.rng.random() < self.polarity_weights.get(v, 0.5)
        if self.polarity_mode == "true":
            return True
        if self.polarity_mode == "false":
            return False
        return self.phase[v]

    # ------------------------------------------------------------------
    # learnt DB management
    # ------------------------------------------------------------------
    def _reduce_db(self):
        """Remove roughly half of the learnt clauses, lowest activity first.

        Clauses currently acting as a reason and binary clauses survive.
        """
        self.learnts.sort(key=lambda c: c.activity)
        keep_from = len(self.learnts) // 2
        removed = set()
        touched = set()
        kept = []
        for i, clause in enumerate(self.learnts):
            locked = self.reason[abs(clause.lits[0])] is clause
            if i < keep_from and len(clause.lits) > 2 and not locked:
                removed.add(id(clause))
                # Propagation keeps the watched literals in lits[0]/lits[1]
                # (swaps are in place), so only these two lists can hold
                # the clause — no need to sweep the whole watch table.
                touched.add(self._widx(-clause.lits[0]))
                touched.add(self._widx(-clause.lits[1]))
            else:
                kept.append(clause)
        self.learnts = kept
        for idx in touched:
            self.watches[idx] = [c for c in self.watches[idx]
                                 if id(c) not in removed]

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self):
        """Search counters, in the shape the backend protocol promises.

        Oracle consumers (sessions, sampler) read these through
        ``stats()`` rather than the attributes so alternative backends
        report real numbers instead of silently missing them.
        """
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }

    def clause_counts(self):
        """Database sizes: problem clauses still listed (released ones
        count until compaction), the live ones, and learnt clauses."""
        return {
            "clauses": len(self.clauses),
            "live_clauses": len(self.clauses) - self._dead_clauses,
            "learnts": len(self.learnts),
        }

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(self, assumptions=(), conflict_budget=None, deadline=None):
        """Solve under ``assumptions`` (an iterable of literals).

        Returns :data:`SAT`, :data:`UNSAT`, or :data:`UNKNOWN` (budget ran
        out).  After :data:`SAT`, :attr:`model` holds ``{var: bool}`` over
        all variables; after :data:`UNSAT` under assumptions, :attr:`core`
        holds a subset of the assumptions sufficient for unsatisfiability
        (empty when the formula is unconditionally UNSAT).

        Selectors of live clause groups are assumed automatically (first,
        so group context is established before the caller's assumptions)
        and masked out of both the model and the core.
        """
        self.model = None
        self.core = None
        assumptions = [int(l) for l in assumptions]
        if self._group_selector:
            selectors = [self._group_selector[g]
                         for g in sorted(self._group_selector)
                         if g not in self._released]
            assumptions = selectors + assumptions
        self.ensure_vars(max(map(abs, assumptions), default=0))
        if not self.ok:
            self.core = []
            return UNSAT

        start_conflicts = self.conflicts
        restart_base = 100
        restart_round = 0
        max_learnts = max(1000, len(self.clauses) // 3)

        while True:
            budget = restart_base * _luby(2.0, restart_round)
            restart_round += 1
            status = self._search(int(budget), assumptions,
                                  start_conflicts, conflict_budget,
                                  deadline, max_learnts)
            if status is not None:
                self._cancel_until(0)
                if self._selector_group:
                    if status == SAT:
                        for v in self._selector_group:
                            self.model.pop(v, None)
                    elif status == UNSAT and self.core:
                        self.core = [l for l in self.core if abs(l)
                                     not in self._selector_group]
                return status
            self.restarts += 1
            if conflict_budget is not None and \
                    self.conflicts - start_conflicts >= conflict_budget:
                self._cancel_until(0)
                return UNKNOWN
            if deadline is not None and deadline.expired():
                self._cancel_until(0)
                return UNKNOWN

    def _search(self, restart_budget, assumptions, start_conflicts,
                conflict_budget, deadline, max_learnts):
        trail, trail_lim = self.trail, self.trail_lim
        propagate, analyze = self._propagate, self._analyze
        cancel_until, enqueue = self._cancel_until, self._enqueue
        conflicts_here = 0
        while True:
            conflict = propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self.ok = False
                    self.core = []
                    return UNSAT
                learnt, bt_level = analyze(conflict)
                cancel_until(bt_level)
                if len(learnt) == 1:
                    enqueue(learnt[0], None)
                else:
                    clause = _Clause(learnt, learnt=True)
                    self.learnts.append(clause)
                    self._watch(clause)
                    self._bump_clause(clause)
                    enqueue(learnt[0], clause)
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                if deadline is not None and (self.conflicts & 255) == 0 \
                        and deadline.expired():
                    return UNKNOWN
                if conflict_budget is not None and \
                        self.conflicts - start_conflicts >= conflict_budget:
                    return UNKNOWN
                if conflicts_here >= restart_budget:
                    cancel_until(0)
                    return None  # restart
                continue

            if len(self.learnts) > max_learnts + len(trail):
                self._reduce_db()

            # Replay assumptions as the first decisions.
            next_lit = None
            while len(trail_lim) < len(assumptions):
                p = assumptions[len(trail_lim)]
                value = self._value(p)
                if value is True:
                    trail_lim.append(len(trail))  # dummy level
                elif value is False:
                    self.core = self._analyze_final(p)
                    return UNSAT
                else:
                    next_lit = p
                    break
            if next_lit is None:
                v = self._pick_branch_var()
                if v is None:
                    self.model = {i: bool(self.assigns[i])
                                  for i in range(1, self.num_vars + 1)}
                    return SAT
                next_lit = v if self._pick_polarity(v) else -v
            self.decisions += 1
            trail_lim.append(len(trail))
            enqueue(next_lit, None)


class Solver:
    """CDCL SAT solver.

    A facade over one core: the compiled core when it built, else the
    :class:`PythonCore`.  Both are trajectory-exact, so which one runs
    changes only the speed.  ``solve`` and ``add_clause`` stay methods
    of this class, where per-layer tracing hooks them.

    Parameters
    ----------
    cnf:
        Optional :class:`~repro.formula.cnf.CNF` loaded at construction.
    rng:
        Seed or ``random.Random`` for randomized heuristics.
    polarity_mode:
        ``"saved"`` (phase saving, the default), ``"false"``, ``"true"``,
        ``"random"`` or ``"weighted"`` (used by the sampler).
    random_var_freq:
        Probability of branching on a random unassigned variable instead
        of the VSIDS maximum (sampler diversification).
    default_phase:
        Saved phase of a variable that has never been assigned.
    polarity_weights:
        ``{var: P(branch True)}`` for ``"weighted"`` mode; the sampler
        updates it in place between solves.
    """

    def __init__(self, cnf=None, rng=None, polarity_mode="saved",
                 random_var_freq=0.0, default_phase=False,
                 polarity_weights=None):
        self._core = self._core_factory()(
            make_rng(rng), polarity_mode, random_var_freq, default_phase,
            polarity_weights if polarity_weights is not None else {})
        if cnf is not None:
            self.add_cnf(cnf)

    @staticmethod
    def _core_factory():
        return _make_core

    # Search state and counters (read-only) and heuristic knobs
    # (assignable between solves; ``rng`` is re-seeded by the sampler).
    num_vars = property(attrgetter("_core.num_vars"))
    ok = property(attrgetter("_core.ok"),
                  doc="False once a root-level conflict is known.")
    model = property(attrgetter("_core.model"),
                     doc="``{var: bool}`` after SAT, else None.")
    core = property(attrgetter("_core.core"),
                    doc="Assumption literals sufficient for UNSAT, else None.")
    conflicts = property(attrgetter("_core.conflicts"))
    decisions = property(attrgetter("_core.decisions"))
    propagations = property(attrgetter("_core.propagations"))
    restarts = property(attrgetter("_core.restarts"))
    rng = _knob("rng")
    polarity_mode = _knob("polarity_mode")
    random_var_freq = _knob("random_var_freq")
    default_phase = _knob("default_phase")
    polarity_weights = _knob("polarity_weights")

    def ensure_vars(self, n):
        """Grow the variable space to at least ``n`` variables."""
        self._core.ensure_vars(n)

    def reserve_var(self):
        """Allocate and return one fresh variable id.

        The incremental Tseitin sink uses this to grow the solver's
        variable space in lock-step with its encoding.
        """
        return self._core.reserve_var()

    def add_cnf(self, cnf, group=None):
        """Load all clauses of a :class:`~repro.formula.cnf.CNF`."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause, group=group)
        return self.ok

    def add_clause(self, lits, group=None):
        """Add a problem clause; returns ``False`` on root-level conflict.

        With ``group=g`` the clause is guarded by the group's selector:
        it constrains the search only while the group is live, and
        :meth:`release_group` retires it.
        """
        return self._core.add_clause(lits, group)

    def new_group(self):
        """Open a clause group; returns its id.

        Clauses added with ``group=id`` are active on every
        :meth:`solve` until :meth:`release_group` retires them.  The
        selector is allocated from the shared variable space, so reserve
        the problem variables (:meth:`ensure_vars`) *before* opening
        groups; :meth:`add_clause` rejects literals that collide with a
        selector.
        """
        return self._core.new_group()

    def release_group(self, group):
        """Permanently retire a group: its clauses stop constraining
        anything, now and on every future :meth:`solve`.  Only call
        between ``solve()`` calls."""
        self._core.release_group(group)

    def solve(self, assumptions=(), conflict_budget=None, deadline=None):
        """Solve under ``assumptions`` (an iterable of literals).

        Returns :data:`SAT`, :data:`UNSAT`, or :data:`UNKNOWN` (budget ran
        out).  After :data:`SAT`, :attr:`model` holds ``{var: bool}`` over
        all variables; after :data:`UNSAT` under assumptions, :attr:`core`
        holds a subset of the assumptions sufficient for unsatisfiability
        (empty when the formula is unconditionally UNSAT).

        Selectors of live clause groups are assumed automatically (first,
        so group context is established before the caller's assumptions)
        and masked out of both the model and the core.
        """
        return self._core.solve(assumptions, conflict_budget, deadline)

    def stats(self):
        """Search counters, in the shape the backend protocol promises.

        Oracle consumers (sessions, sampler) read these through
        ``stats()`` rather than the attributes so alternative backends
        report real numbers instead of silently missing them.
        """
        return self._core.stats()

    def clause_counts(self):
        """``{"clauses", "live_clauses", "learnts"}``: database sizes
        (released group clauses stay in ``clauses`` until compaction)."""
        return self._core.clause_counts()


class ReferenceSolver(Solver):
    """A :class:`Solver` on the :class:`PythonCore`, whatever core the
    import selected.  Certification checks the engines' answers with it,
    so a defect in the compiled core cannot certify its own output."""

    @staticmethod
    def _core_factory():
        return PythonCore


def _load_compiled_core():
    try:
        from repro.sat import _native
        return _native.load().Core
    except Exception as exc:  # no compiler, no headers, failed build or load
        warnings.warn("repro.sat.solver: compiled CDCL core unavailable "
                      "(%s: %s); using the Python core"
                      % (type(exc).__name__, exc), RuntimeWarning,
                      stacklevel=2)
        return None


#: The core new solvers get.  Module-level so tests can swap it.
_make_core = _load_compiled_core() or PythonCore
#: ``"compiled"`` or ``"python"``: which core :class:`Solver` runs on.
CORE = "python" if _make_core is PythonCore else "compiled"


def solve_cnf(cnf, assumptions=(), rng=None, conflict_budget=None,
              deadline=None):
    """One-shot convenience: solve ``cnf`` and return ``(status, payload)``.

    ``payload`` is the model dict on :data:`SAT`, the assumption core on
    :data:`UNSAT`, and ``None`` on :data:`UNKNOWN`.
    """
    solver = Solver(cnf, rng=rng)
    status = solver.solve(assumptions=assumptions,
                          conflict_budget=conflict_budget, deadline=deadline)
    if status == SAT:
        return status, solver.model
    if status == UNSAT:
        return status, solver.core
    return status, None
