"""Engine configuration.

Defaults follow the paper's implementation choices; the ablation flags
(``use_y_features``, ``use_yhat_constraint``, sampler bias) exist so the
ablation benchmarks can switch individual design decisions off.
"""


class Manthan3Config:
    """Tunable knobs for :class:`~repro.core.engine.Manthan3`.

    Attributes
    ----------
    num_samples:
        Satisfying assignments drawn for the learning stage.
    adaptive_sampling:
        Bias sample polarities per existential marginal (Manthan's
        weighted sampling).  Ablation flag.
    use_unate_detection / use_unique_extraction:
        Preprocessing from the paper's implementation (constants for
        unate outputs; definitions via gates/Padoa for uniquely defined
        outputs).
    max_unique_table_bits:
        Dependency-set size cap for truth-table definition extraction.
    use_y_features:
        Allow ``yj`` with ``Hj ⊆ Hi`` as decision-tree features
        (Algorithm 2, line 3).  Ablation flag.
    use_yhat_constraint:
        Include the ``Ŷ ↔ σ[Ŷ]`` conjunct in the repair formula ``Gk``
        (Formula 1).  Ablation flag — §5's example shows repairs degrade
        without it.
    tree_max_depth / tree_min_impurity_decrease:
        Decision-tree growth bounds.
    maxsat_algorithm:
        ``"fu-malik"`` or ``"linear"`` for ``FindCandi``.
    max_repair_iterations:
        Hard cap on processed counterexamples before giving up.
    stagnation_limit:
        Consecutive counterexamples with no candidate modified before the
        engine declares itself stuck (the paper's incompleteness case).
    use_self_substitution / self_substitution_threshold:
        Manthan/Manthan2's fallback: a candidate repaired more than the
        threshold number of times is replaced wholesale by the
        self-substituted function ``ϕ|_{y=1}`` (only sound — and only
        attempted — for Skolem-positioned variables; see
        :mod:`repro.core.selfsub`).
    self_substitution_max_dag:
        Size guard on the substituted expression.
    sat_conflict_budget:
        Per-oracle-call conflict cap (``None`` = unbounded).
    sat_backend:
        Which :mod:`repro.sat.backend` oracle the sessions and the
        sampler run on: ``"python"`` (the default, present everywhere:
        the compiled CDCL core, or the Python core when the compiled
        one did not build), ``"python-emulated"`` (same CDCL behind the
        generic selector-group emulation layer), or
        ``"pysat"``/``"pysat:<solver>"`` (the optional python-sat
        bridge; selecting it without the package installed raises at
        session construction).  Backends that lack weighted-polarity
        sampling keep ``"python"`` for the sampler only.
    sat_backend_fallbacks:
        Backend names tried, in order, when the live oracle backend
        fails mid-run (:class:`~repro.sat.backend.BackendUnavailableError`
        or ``MemoryError``): the failing session rebuilds on the next
        chain entry, replays its live clause groups from the retained
        encodings, and retries the interrupted call; each switch is
        counted under ``stats["oracle"]["failovers"]``.  Defaults to
        ``["python"]`` — the reference backend is always present, so a
        crashed optional backend degrades instead of killing the run.
        An empty chain restores the old fail-fast behavior.
    phase_budgets:
        Optional ``{phase_name: seconds}`` wall-clock sub-budgets for
        individual pipeline phases (see :mod:`repro.core.pipeline`).  A
        phase's deadline is the *minimum* of its sub-budget and the
        run's global deadline.  A phase that exhausts only its own
        budget is truncated (recorded under
        ``stats["phases_truncated"]``) and the pipeline moves on —
        accumulated state, statistics, and partial results survive;
        exhausting the global deadline still yields ``TIMEOUT``.
    phase_conflict_budgets:
        Optional ``{phase_name: conflicts}`` per-oracle-call conflict
        caps that override ``sat_conflict_budget`` inside the named
        phase only.
    seed:
        RNG seed for sampling/learning tie-breaks.
    """

    def __init__(self,
                 num_samples=150,
                 adaptive_sampling=True,
                 use_unate_detection=True,
                 use_unique_extraction=True,
                 max_unique_table_bits=8,
                 use_y_features=True,
                 use_yhat_constraint=True,
                 tree_max_depth=None,
                 tree_min_impurity_decrease=0.0,
                 maxsat_algorithm="fu-malik",
                 max_repair_iterations=400,
                 stagnation_limit=3,
                 use_self_substitution=True,
                 self_substitution_threshold=12,
                 self_substitution_max_dag=50_000,
                 sat_conflict_budget=None,
                 sat_backend="python",
                 sat_backend_fallbacks=("python",),
                 phase_budgets=None,
                 phase_conflict_budgets=None,
                 seed=None):
        self.num_samples = num_samples
        self.adaptive_sampling = adaptive_sampling
        self.use_unate_detection = use_unate_detection
        self.use_unique_extraction = use_unique_extraction
        self.max_unique_table_bits = max_unique_table_bits
        self.use_y_features = use_y_features
        self.use_yhat_constraint = use_yhat_constraint
        self.tree_max_depth = tree_max_depth
        self.tree_min_impurity_decrease = tree_min_impurity_decrease
        self.maxsat_algorithm = maxsat_algorithm
        self.max_repair_iterations = max_repair_iterations
        self.stagnation_limit = stagnation_limit
        self.use_self_substitution = use_self_substitution
        self.self_substitution_threshold = self_substitution_threshold
        self.self_substitution_max_dag = self_substitution_max_dag
        self.sat_conflict_budget = sat_conflict_budget
        self.sat_backend = sat_backend
        self.sat_backend_fallbacks = list(sat_backend_fallbacks)
        self.phase_budgets = dict(phase_budgets) if phase_budgets else None
        self.phase_conflict_budgets = (dict(phase_conflict_budgets)
                                       if phase_conflict_budgets else None)
        self.seed = seed

    def replaced(self, **overrides):
        """Return a copy with the given attributes replaced."""
        import copy

        dup = copy.copy(self)
        for key, value in overrides.items():
            if not hasattr(dup, key):
                raise AttributeError("unknown config field %r" % key)
            setattr(dup, key, value)
        return dup
