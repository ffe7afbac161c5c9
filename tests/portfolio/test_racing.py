"""Tests for intra-instance engine racing (``race:`` groups)."""

import time

import pytest

from repro.core.result import Status, SynthesisResult
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.portfolio.parallel import (
    ENGINE_SPECS,
    RACE_PREFIX,
    RaceEngineSpec,
    derive_job_seed,
    make_engine,
    parse_race_members,
    resolve_engine_spec,
    run_campaign,
)
from repro.portfolio.racing import RacingEngine
from repro.utils.errors import ReproError


def tiny_instance(name):
    cnf = CNF([[-2, 1], [2, -1]])
    return DQBFInstance([1], {2: [1]}, cnf, name=name)


class _SlowpokeSpec:
    """A registry spec whose engine never finishes on its own: it polls
    its cancellation token and returns CANCELLED with an anytime
    partial, like a cooperative pipeline would."""

    name = "slowpoke"
    description = "test-only: cancellable busy-waiter"

    def build(self, seed):
        return _SlowpokeEngine()

    def job_seed(self, campaign_seed, instance_name):
        return derive_job_seed(campaign_seed, self.name, instance_name)


class _SlowpokeEngine:
    name = "slowpoke"
    supports_events = True

    def run(self, instance, timeout=None, listeners=None, cancel=None):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if cancel is not None and cancel.cancelled:
                return SynthesisResult(
                    Status.CANCELLED, reason="cancelled",
                    partial_functions={2: bf.var(1)})
            time.sleep(0.005)
        return SynthesisResult(Status.UNKNOWN, reason="never cancelled")


class _StubbornSpec(_SlowpokeSpec):
    """Never decisive, finishes quickly: exercises the no-winner path."""

    name = "stubborn"

    def build(self, seed):
        return _StubbornEngine()


class _StubbornEngine:
    name = "stubborn"

    def run(self, instance, timeout=None):
        return SynthesisResult(Status.UNKNOWN, reason="gave up")


@pytest.fixture
def slowpoke():
    ENGINE_SPECS["slowpoke"] = _SlowpokeSpec()
    try:
        yield
    finally:
        del ENGINE_SPECS["slowpoke"]


@pytest.fixture
def stubborn():
    ENGINE_SPECS["stubborn"] = _StubbornSpec()
    try:
        yield
    finally:
        del ENGINE_SPECS["stubborn"]


class TestParsing:
    def test_members_round_trip(self):
        assert parse_race_members("race:manthan3+expansion") \
            == ["manthan3", "expansion"]

    def test_single_member_is_refused(self):
        with pytest.raises(ReproError, match="at least two"):
            parse_race_members("race:manthan3")

    def test_duplicate_members_are_refused(self):
        with pytest.raises(ReproError, match="twice"):
            parse_race_members("race:manthan3+manthan3")

    def test_unknown_members_are_refused(self):
        with pytest.raises(ReproError, match="nope"):
            parse_race_members("race:manthan3+nope")

    def test_resolve_builds_a_race_spec(self):
        spec = resolve_engine_spec("race:manthan3+expansion")
        assert isinstance(spec, RaceEngineSpec)
        assert spec.members == ("manthan3", "expansion")
        assert spec.name.startswith(RACE_PREFIX)

    def test_resolve_error_mentions_race_syntax(self):
        with pytest.raises(ReproError, match="race:"):
            resolve_engine_spec("unheard-of")

    def test_race_spec_passes_the_campaign_seed_through(self):
        # Members derive their own per-(member, instance) seeds inside
        # the race, so the group's job seed is the raw campaign seed.
        spec = resolve_engine_spec("race:manthan3+expansion")
        assert spec.job_seed(7, "inst") == 7

    def test_make_engine_builds_a_racer(self):
        engine = make_engine("race:manthan3+expansion", seed=7)
        assert isinstance(engine, RacingEngine)
        assert engine.campaign_seed == 7


class TestRaceSemantics:
    def test_winner_matches_its_solo_run_exactly(self):
        # The acceptance bar: racing changes wall clock, never
        # trajectories.  The winner's record must be bit-identical —
        # status AND functions — to the same engine's solo campaign
        # run at the same campaign seed.
        instances = [tiny_instance("a"), tiny_instance("b")]
        raced = run_campaign(instances, ["race:manthan3+expansion"],
                             timeout=10.0, seed=7, keep_results=True)
        for record in raced.records:
            race = record.stats["race"]
            solo = run_campaign(
                [i for i in instances if i.name == record.instance],
                [race["winner"]], timeout=10.0, seed=7,
                keep_results=True).records[0]
            assert record.status == solo.status
            assert record.certified == solo.certified
            won = {v: f.to_infix()
                   for v, f in (record.result.functions or {}).items()}
            ref = {v: f.to_infix()
                   for v, f in (solo.result.functions or {}).items()}
            assert won == ref

    def test_losers_are_cancelled_quickly(self, slowpoke):
        # Without cancellation the slowpoke burns 30 s; the race must
        # return as soon as the real engine wins.
        start = time.monotonic()
        engine = make_engine("race:manthan3+slowpoke", seed=7)
        result = engine.run(tiny_instance("a"), timeout=10.0)
        elapsed = time.monotonic() - start
        assert result.status == Status.SYNTHESIZED
        assert elapsed < 10.0
        race = result.stats["race"]
        assert race["winner"] == "manthan3"
        assert race["outcomes"]["slowpoke"]["status"] == Status.CANCELLED

    def test_losers_anytime_partials_are_retained(self, slowpoke):
        engine = make_engine("race:manthan3+slowpoke", seed=7)
        result = engine.run(tiny_instance("a"), timeout=10.0)
        outcome = result.stats["race"]["outcomes"]["slowpoke"]
        assert outcome["partial_functions"] == 1

    def test_no_decisive_member_returns_first_arrival(self, stubborn):
        engine = RacingEngine("race:stubborn+stubborn2",
                              ["stubborn", "stubborn"], campaign_seed=7)
        result = engine.run(tiny_instance("a"), timeout=1.0)
        assert result.status == Status.UNKNOWN
        assert result.stats["race"]["winner"] == "stubborn"

    def test_member_crash_does_not_torpedo_the_race(self, slowpoke):
        class _CrashSpec(_SlowpokeSpec):
            name = "crashy"

            def build(self, seed):
                class _Crash:
                    name = "crashy"

                    def run(self, instance, timeout=None):
                        raise RuntimeError("boom")
                return _Crash()

        ENGINE_SPECS["crashy"] = _CrashSpec()
        try:
            engine = make_engine("race:crashy+manthan3", seed=7)
            result = engine.run(tiny_instance("a"), timeout=10.0)
        finally:
            del ENGINE_SPECS["crashy"]
        assert result.status == Status.SYNTHESIZED
        assert result.stats["race"]["winner"] == "manthan3"
        crashed = result.stats["race"]["outcomes"]["crashy"]
        assert crashed["status"] == Status.UNKNOWN

    def test_outer_cancellation_reaches_every_member(self, slowpoke):
        from repro.api.cancellation import CancellationToken

        token = CancellationToken()
        token.cancel()
        engine = make_engine("race:slowpoke+manthan3", seed=7)
        result = engine.run(tiny_instance("a"), timeout=10.0,
                            cancel=token)
        outcome = result.stats["race"]["outcomes"]["slowpoke"]
        assert outcome["status"] == Status.CANCELLED

    def test_saved_wall_clock_is_nonnegative(self):
        engine = make_engine("race:manthan3+expansion", seed=7)
        result = engine.run(tiny_instance("a"), timeout=10.0)
        assert result.stats["race"]["saved"] >= 0.0


class TestRaceInCampaigns:
    def test_race_group_runs_through_the_pool(self):
        instances = [tiny_instance("a"), tiny_instance("b")]
        table = run_campaign(instances, ["race:manthan3+expansion"],
                             timeout=10.0, jobs=2)
        assert len(table.records) == 2
        for record in table.records:
            assert record.engine == "race:manthan3+expansion"
            assert record.status == Status.SYNTHESIZED
            assert record.certified is True
            assert record.stats["race"]["winner"] in ("manthan3",
                                                      "expansion")

    def test_race_records_round_trip_the_store(self, tmp_path):
        from repro.portfolio.store import CampaignStore

        instances = [tiny_instance("a")]
        store = CampaignStore(str(tmp_path / "camp.jsonl"))
        run_campaign(instances, ["race:manthan3+expansion"],
                     timeout=10.0, seed=7, store=store)
        loaded = CampaignStore(store.path).load()
        assert loaded.records[0].stats["race"]["winner"] \
            in ("manthan3", "expansion")

    def test_race_groups_work_in_elastic_campaigns(self, tmp_path):
        from repro.portfolio.elastic import ElasticWorker

        summary = ElasticWorker(
            [tiny_instance("a")], ["race:manthan3+expansion"],
            str(tmp_path / "camp.jsonl"), worker_id="w1", timeout=10.0,
            seed=7).run()
        assert summary["complete"]
        record = summary["table"].records[0]
        assert record.status == Status.SYNTHESIZED
        assert "race" in record.stats


class TestFacade:
    def test_solver_accepts_race_names(self):
        from repro.api import Problem, Solver

        solution = Solver("race:manthan3+expansion", seed=7).solve(
            Problem(tiny_instance("a")), timeout=10.0)
        assert solution.status == Status.SYNTHESIZED

    def test_solver_rejects_bad_race_names(self):
        from repro.api import Solver

        with pytest.raises(ReproError, match="at least two"):
            Solver("race:manthan3")
