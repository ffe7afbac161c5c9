"""Tests for the staged pipeline: per-phase budgets, anytime partial
results, session building, and the declarative engine specs.

The pipeline's trajectories (statuses AND functions) are pinned by the
golden engine trajectories of ``test_engine_golden.py``.
"""

import pytest

from repro.benchgen import generate_planted_instance
from repro.core import (
    DEFAULT_PHASE_NAMES,
    Manthan3,
    Manthan3Config,
    Pipeline,
    Status,
    SynthesisContext,
    synthesize,
)
from repro.core.pipeline import PHASES
from repro.dqbf import check_henkin_vector
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.portfolio import make_engine, run_campaign
from repro.utils.errors import ReproError
from repro.utils.timer import Deadline


def make(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


class TestSessionBuilding:
    """Every phase that queries an oracle session builds the sessions
    first, once; a run that ends in the unit fast path builds none."""

    def test_hand_built_context_gets_sessions(self):
        from repro.core.candidates import DependencyTracker

        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1, 2], [3, -1], [3, -2]])        # y ↔ (x1 ∨ x2)
        ctx = SynthesisContext(inst, Manthan3Config(seed=1))
        ctx.candidates = {3: bf.FALSE}
        ctx.tracker = DependencyTracker(inst.existentials)
        ctx.order = [3]
        result = Pipeline(("verify_repair",)).execute(ctx)
        assert result.status == Status.SYNTHESIZED
        oracle = result.stats["oracle"]
        assert oracle["verifier"]["calls"] >= 2
        assert oracle["matrix"]["calls_repair"] >= 1

    def test_build_sessions_is_idempotent(self):
        from repro.core.sessions import build_sessions

        inst = make([1], {2: [1]}, [[-2, 1], [2, -1]])
        ctx = SynthesisContext(inst, Manthan3Config(seed=1))
        build_sessions(ctx)
        built = (ctx.matrix_session, ctx.verifier_session)
        state = ctx.oracle_rng.getstate()
        build_sessions(ctx)
        assert (ctx.matrix_session, ctx.verifier_session) == built
        assert [name for name, _ in ctx.sessions] == ["matrix", "verifier"]
        assert ctx.oracle_rng.getstate() == state

    def test_unit_fastpath_builds_no_sessions(self):
        inst = make([1], {2: [1]}, [[1], [1, 2]])
        result = Manthan3(Manthan3Config(seed=2)).run(inst, timeout=30)
        assert result.status == Status.FALSE
        assert "oracle" not in result.stats


class TestAnytimePartials:
    """TIMEOUT/UNKNOWN results carry stats and best-so-far candidates."""

    def _instance(self):
        return generate_planted_instance(
            num_universals=16, num_existentials=3, dep_width=14,
            region_width=3, rules_per_y=5, seed=11)

    def test_timeout_mid_loop_keeps_stats(self):
        """Satellite regression: the PR 3 handler dropped everything but
        wall_time; a budget-bounded run must still report samples and
        oracle counters (plus the phase timings and partials)."""
        config = Manthan3Config(seed=9,
                                phase_budgets={"verify_repair": 0.0})
        result = Manthan3(config).run(self._instance(), timeout=60)
        assert result.status == Status.TIMEOUT
        assert result.stats["samples"] > 0
        assert "oracle" in result.stats
        assert "phases" in result.stats
        assert result.stats["phases_truncated"] == ["verify_repair"]
        assert result.partial_functions is not None
        assert set(result.partial_functions) == \
            set(self._instance().existentials)
        assert result.stats["partial"]["functions"] == \
            len(result.partial_functions)

    def test_global_timeout_keeps_stats(self):
        result = synthesize(self._instance(), timeout=0.0)
        assert result.status == Status.TIMEOUT
        assert "samples" in result.stats
        assert "oracle" in result.stats
        assert "phases" in result.stats
        assert result.stats["wall_time"] >= 0.0

    def test_unknown_carries_partials(self):
        """An exhausted repair budget returns the (uncertified) current
        vector as a partial."""
        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1, 2], [3, -1], [3, -2]])        # y ↔ (x1 ∨ x2)
        config = Manthan3Config(seed=1, max_repair_iterations=0,
                                use_unate_detection=False,
                                use_unique_extraction=False,
                                num_samples=1)
        ctx = SynthesisContext(inst, config, deadline=Deadline(None))
        ctx.samples = []
        ctx.fixed = {}
        ctx.candidates = {3: bf.FALSE}   # wrong on purpose
        from repro.core.candidates import DependencyTracker

        ctx.tracker = DependencyTracker(inst.existentials)
        ctx.order = [3]
        result = Pipeline(("verify_repair",)).execute(ctx)
        assert result.status == Status.UNKNOWN
        assert result.reason == "repair iteration budget exhausted"
        assert result.partial_functions == {3: bf.FALSE}
        assert result.partial_verified == 0

    def test_partial_verified_counts_final_outputs(self):
        """Preprocessing-fixed outputs count as verified partials."""
        # y2 is positive unate ((x1 ∨ y2)); y3 must be learned.
        inst = make([1], {2: [1], 3: [1]},
                    [[1, 2], [-3, 1], [3, -1]])
        config = Manthan3Config(seed=5,
                                phase_budgets={"verify_repair": 0.0})
        result = Manthan3(config).run(inst, timeout=60)
        assert result.status == Status.TIMEOUT
        assert result.partial_functions is not None
        assert result.partial_verified >= 1
        assert result.partial_functions[2] is bf.TRUE


class TestPhaseBudgets:
    def test_learn_and_order_budgets_truncate_cleanly(self):
        """A truncated learn/order phase must end the run as TIMEOUT —
        not crash the downstream phases on unset context fields."""
        inst = generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=24)
        for phase in ("learn", "order"):
            config = Manthan3Config(seed=9, phase_budgets={phase: 0.0})
            result = Manthan3(config).run(inst, timeout=60)
            assert result.status == Status.TIMEOUT, phase
            assert phase in result.stats["phases_truncated"]

    def test_preprocess_truncation_keeps_partial_fixed(self):
        """A budget striking mid-unate-pass must not discard the
        outputs already fixed, and the dual rail must still retire."""
        from repro.core.preprocess import run_preprocess
        from repro.utils.errors import ResourceBudgetExceeded

        class OneUnateThenBudget:
            def __init__(self):
                self.calls = 0
                self.retired = False

            def unate_check(self, y, value, deadline=None,
                            conflict_budget=None):
                self.calls += 1
                if self.calls == 1:
                    return True
                raise ResourceBudgetExceeded("stub budget")

            def add_unit(self, literal):
                pass

            def retire_dual(self):
                self.retired = True

        inst = make([1], {2: [1], 3: [1]}, [[1, 2], [1, 3]])
        config = Manthan3Config(seed=1, use_unique_extraction=False)
        ctx = SynthesisContext(inst, config)
        ctx.matrix_session = stub = OneUnateThenBudget()
        with pytest.raises(ResourceBudgetExceeded):
            run_preprocess(ctx)
        assert ctx.fixed == {2: bf.TRUE}
        assert ctx.stats["fixed_unates"] == 1
        assert stub.retired

    def test_repair_iterations_reported_on_mid_loop_timeout(self,
                                                           monkeypatch):
        """A budget striking mid-verify-repair reports how far repair
        got, not the initial 0."""
        import repro.core.pipeline as pl
        from repro.core.candidates import DependencyTracker
        from repro.utils.errors import ResourceBudgetExceeded

        class FlipDeadline:
            def __init__(self):
                self.tripped = False

            def expired(self):
                return self.tripped

            def check(self):
                if self.tripped:
                    raise ResourceBudgetExceeded("stub deadline")

        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1, 2], [3, -1], [3, -2]])        # y ↔ (x1 ∨ x2)
        config = Manthan3Config(seed=3, use_self_substitution=False)
        deadline = FlipDeadline()
        ctx = SynthesisContext(inst, config, deadline=deadline)
        ctx.candidates = {3: bf.FALSE}
        ctx.tracker = DependencyTracker(inst.existentials)
        ctx.order = [3]

        real_run_repair = pl.run_repair

        def repair_then_trip(ctx, sigma_x):
            modified = real_run_repair(ctx, sigma_x)
            deadline.tripped = True
            return modified

        monkeypatch.setattr(pl, "run_repair", repair_then_trip)
        result = Pipeline(("verify_repair",)).execute(ctx)
        assert result.status == Status.TIMEOUT
        assert result.stats["repair_iterations"] == 1
        assert result.partial_functions is not None

    def test_sample_budget_truncates(self):
        inst = generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=21)
        config = Manthan3Config(seed=9, phase_budgets={"sample": 0.0})
        result = Manthan3(config).run(inst, timeout=60)
        assert result.status == Status.TIMEOUT
        assert "sample" in result.stats["phases_truncated"]

    def test_unknown_budget_key_rejected(self):
        config = Manthan3Config(phase_budgets={"no_such_phase": 1.0})
        with pytest.raises(ReproError):
            Manthan3(config)
        # ... and a budget for a phase the *ablated* pipeline drops.
        config = Manthan3Config(phase_budgets={"preprocess": 1.0})
        with pytest.raises(ReproError):
            Manthan3(config, phases=("unit_fastpath", "sample", "learn",
                                     "order", "verify_repair"))

    def test_phase_conflict_budget_applies(self):
        """A per-phase conflict budget overrides the global cap inside
        that phase only."""
        inst = generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=22)
        config = Manthan3Config(
            seed=9, phase_conflict_budgets={"verify_repair": 0})
        result = Manthan3(config).run(inst, timeout=60)
        # Zero conflicts may or may not suffice to decide the oracle
        # calls; either the run still finishes, or the phase truncates.
        assert result.status in (Status.SYNTHESIZED, Status.FALSE,
                                 Status.UNKNOWN, Status.TIMEOUT)
        assert "phases" in result.stats

    def test_phase_timings_cover_phase_list(self):
        inst = generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=23)
        result = Manthan3(Manthan3Config(seed=9)).run(inst, timeout=60)
        assert result.status == Status.SYNTHESIZED
        # Every phase up to the verdict was timed.
        assert list(result.stats["phases"]) == list(DEFAULT_PHASE_NAMES)


class TestPipelineComposition:
    def test_unknown_phase_name_rejected(self):
        with pytest.raises(ReproError):
            Pipeline(("sample", "no_such_phase"))

    def test_registry_covers_default_list(self):
        assert set(DEFAULT_PHASE_NAMES) <= set(PHASES)

    def test_ablated_pipeline_synthesizes(self):
        """The preprocessing-free phase list still solves instances —
        preprocessing is an accelerator, not a soundness requirement."""
        inst = make([1, 2], {3: [1, 2]},
                    [[-3, 1], [-3, 2], [3, -1, -2]])       # y ↔ x1 ∧ x2
        engine = make_engine("manthan3-nopre", seed=4)
        result = engine.run(inst, timeout=30)
        assert result.status == Status.SYNTHESIZED
        assert check_henkin_vector(inst, result.functions).valid
        # No preprocessing phase ran: no fixed_* stats, no timing row.
        assert "fixed_unates" not in result.stats
        assert "preprocess" not in result.stats["phases"]


class TestEngineSpecs:
    def test_ablation_engines_are_data(self):
        from repro.portfolio import ENGINE_SPECS

        nopre = ENGINE_SPECS["manthan3-nopre"]
        assert nopre.phases == ("unit_fastpath", "sample", "learn",
                                "order", "verify_repair")
        noselfsub = ENGINE_SPECS["manthan3-noselfsub"]
        assert noselfsub.overrides == {"use_self_substitution": False}
        assert make_engine("manthan3-noselfsub",
                           seed=1).config.use_self_substitution is False

    def test_campaign_with_ablation_engines(self):
        suite = [generate_planted_instance(
            num_universals=14, num_existentials=3, dep_width=12,
            region_width=3, rules_per_y=4, seed=50)]
        table = run_campaign(suite, ["manthan3", "manthan3-nopre",
                                     "manthan3-noselfsub"],
                             timeout=60, seed=2)
        assert len(table.records) == 3
        for record in table.records:
            assert record.certified is not False, record.engine
            # Workers shipped per-phase stats over IPC.
            assert "phases" in record.stats
