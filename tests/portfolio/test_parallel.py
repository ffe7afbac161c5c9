"""Tests for the process-parallel campaign subsystem."""

import os
import sys
import time

import pytest

from repro.core.result import Status, SynthesisResult
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.portfolio.parallel import (
    ENGINE_SPECS,
    PipelineEngineSpec,
    derive_job_seed,
    engine_names,
    make_engine,
    run_campaign,
)
from repro.utils.errors import ReproError


def tiny_instance(name):
    cnf = CNF([[-2, 1], [2, -1]])
    return DQBFInstance([1], {2: [1]}, cnf, name=name)


class GoodEngine:
    name = "good"

    def run(self, instance, timeout=None):
        return SynthesisResult(Status.SYNTHESIZED,
                               functions={2: bf.var(1)},
                               stats={"wall_time": 0.01})


class HangingEngine:
    """Ignores its deadline — only the parent-side kill can stop it."""

    name = "hanging"

    def run(self, instance, timeout=None):
        time.sleep(3600)


class CrashingEngine:
    """Dies without reporting (simulates a segfault/OOM kill)."""

    name = "crashing"

    def run(self, instance, timeout=None):
        os._exit(3)


class RaisingEngine:
    name = "raising"

    def run(self, instance, timeout=None):
        raise ValueError("engine bug")


class DeepPartialEngine:
    """Gives up with an anytime partial nested deeper than the
    recursion limit, so the result cannot be pickled."""

    name = "deep"

    def run(self, instance, timeout=None):
        expr = bf.var(1)
        for i in range(2, sys.getrecursionlimit()):
            expr = bf.or_(bf.and_(expr, bf.var(2 * i)), bf.var(2 * i + 1))
        return SynthesisResult(Status.UNKNOWN,
                               reason="repair budget exhausted",
                               stats={"wall_time": 0.75},
                               partial_functions={2: expr})


class TestRegistry:
    def test_all_engines_buildable(self):
        for name in engine_names():
            engine = make_engine(name, seed=1)
            # records use the registry name; the engine's own label may
            # be longer (e.g. skolem -> "skolem-composition")
            assert engine.name.startswith(name)
            assert callable(engine.run)

    def test_registry_covers_cli_choices(self):
        from repro.sat.backend import backend_available

        expected = {"manthan3", "manthan3-fresh", "manthan3-rowwise",
                    "manthan3-nopre", "manthan3-noselfsub",
                    "manthan3-emulated", "expansion", "pedant", "skolem",
                    "bdd"}
        # The PySAT engine registers only where python-sat is installed,
        # so engine_names() never advertises an unconstructible engine.
        if backend_available("pysat"):
            expected.add("manthan3-pysat")
        assert set(ENGINE_SPECS) == expected

    def test_pipeline_specs_are_declarative(self):
        """Manthan3 variants are data — overrides + phase list — and
        build engines that carry the spec's name."""
        spec = ENGINE_SPECS["manthan3-fresh"]
        assert isinstance(spec, PipelineEngineSpec)
        assert spec.overrides == {"incremental": False}
        assert spec.phases is None          # default phase list
        engine = spec.build(seed=7)
        assert engine.name == "manthan3-fresh"
        assert engine.config.incremental is False
        assert engine.config.seed == 7

    def test_unknown_engine_raises(self):
        with pytest.raises(ReproError):
            make_engine("no-such-engine")
        with pytest.raises(ReproError):
            run_campaign([tiny_instance("a")], ["no-such-engine"])


class TestJobSeeds:
    def test_deterministic(self):
        assert derive_job_seed(3, "manthan3", "inst") \
            == derive_job_seed(3, "manthan3", "inst")

    def test_distinct_across_jobs(self):
        seeds = {derive_job_seed(0, e, i)
                 for e in ("manthan3", "expansion")
                 for i in ("a", "b", "c")}
        assert len(seeds) == 6

    def test_none_propagates(self):
        assert derive_job_seed(None, "manthan3", "inst") is None


class TestPoolScheduling:
    def test_all_pairs_recorded(self):
        instances = [tiny_instance(chr(ord("a") + k)) for k in range(5)]
        table = run_campaign(instances, [GoodEngine()], timeout=10,
                             jobs=3)
        assert len(table.records) == 5
        assert table.solved_instances("good") == {"a", "b", "c", "d", "e"}

    def test_canonical_record_order(self):
        instances = [tiny_instance("a"), tiny_instance("b")]
        table = run_campaign(instances, [GoodEngine(), HangingEngine()],
                             timeout=0.1, jobs=4, kill_grace=0.3)
        assert [(r.engine, r.instance) for r in table.records] == [
            ("good", "a"), ("hanging", "a"),
            ("good", "b"), ("hanging", "b")]

    def test_hung_worker_killed(self):
        table = run_campaign([tiny_instance("a")], [HangingEngine()],
                             timeout=0.2, jobs=2, kill_grace=0.3)
        record = table.record_for("hanging", "a")
        assert record.status == Status.TIMEOUT
        assert record.stats.get("killed") is True
        assert "killed" in record.reason

    def test_crashed_worker_reported(self):
        table = run_campaign([tiny_instance("a")], [CrashingEngine()],
                             timeout=5, jobs=2)
        record = table.record_for("crashing", "a")
        assert record.status == Status.UNKNOWN
        assert "exited" in record.reason
        assert not record.solved

    def test_raising_engine_reported(self):
        table = run_campaign([tiny_instance("a")], [RaisingEngine()],
                             timeout=5, jobs=2)
        record = table.record_for("raising", "a")
        assert record.status == Status.UNKNOWN
        assert "engine bug" in record.reason

    def test_one_bad_job_does_not_sink_the_pool(self):
        instances = [tiny_instance("a"), tiny_instance("b")]
        table = run_campaign(instances,
                             [GoodEngine(), CrashingEngine()],
                             timeout=5, jobs=2)
        assert table.solved_instances("good") == {"a", "b"}
        assert table.solved_instances("crashing") == set()

    def test_unpicklable_result_keeps_the_verdict(self):
        table = run_campaign([tiny_instance("a")], [DeepPartialEngine()],
                             timeout=10, jobs=2, keep_results=True)
        record = table.record_for("deep", "a")
        assert record.status == Status.UNKNOWN
        assert record.reason == "repair budget exhausted"
        assert record.time == 0.75
        assert record.result is None  # only the result was dropped

    def test_progress_fires_per_executed_run(self):
        seen = []
        run_campaign([tiny_instance("a"), tiny_instance("b")],
                     [GoodEngine()], timeout=10, jobs=2,
                     progress=seen.append)
        assert sorted(r.instance for r in seen) == ["a", "b"]


class TestParallelSequentialEquivalence:
    """The acceptance property: jobs=N reproduces jobs=1 exactly."""

    @pytest.fixture(scope="class")
    def suite(self):
        from repro.benchgen import build_suite

        return build_suite("smoke", seed=1)[:4]

    def test_statuses_and_solved_sets_match(self, suite):
        engines = ["manthan3", "expansion"]
        sequential = run_campaign(suite, engines, timeout=30, jobs=1,
                                  seed=7)
        parallel = run_campaign(suite, engines, timeout=30, jobs=4,
                                seed=7)
        assert [(r.engine, r.instance, r.status, r.certified)
                for r in sequential.records] \
            == [(r.engine, r.instance, r.status, r.certified)
                for r in parallel.records]
        for engine in engines:
            assert sequential.solved_instances(engine) \
                == parallel.solved_instances(engine)

    def test_store_round_trip_preserves_solved_sets(self, suite,
                                                    tmp_path):
        from repro.portfolio import CampaignStore

        store = CampaignStore(str(tmp_path / "c.jsonl"))
        engines = ["expansion"]
        table = run_campaign(suite, engines, timeout=30, jobs=2,
                             seed=7, store=store)
        loaded = store.load()
        assert loaded.timeout == 30
        assert loaded.solved_instances("expansion") \
            == table.solved_instances("expansion")
        assert {(r.engine, r.instance, r.status)
                for r in loaded.records} \
            == {(r.engine, r.instance, r.status)
                for r in table.records}


class TestWorkerStamp:
    """Every run record — serial or pool — attributes its executing
    worker (``stats["worker"] = {"id", "host"}``), store round-tripped,
    so merged multi-worker campaigns stay attributable per record."""

    def test_serial_records_carry_worker_identity(self):
        table = run_campaign([tiny_instance("a")], ["expansion"],
                             timeout=10, jobs=1, seed=7)
        worker = table.records[0].stats["worker"]
        assert worker["host"]
        assert worker["id"].endswith("-%d" % os.getpid())

    def test_pool_records_carry_the_child_pid(self):
        table = run_campaign([tiny_instance("a"), tiny_instance("b")],
                             ["expansion"], timeout=10, jobs=2, seed=7)
        for record in table.records:
            worker = record.stats["worker"]
            assert worker["host"]
            # stamped inside the forked worker, not the parent
            assert not worker["id"].endswith("-%d" % os.getpid())

    def test_stamp_round_trips_the_store(self, tmp_path):
        from repro.portfolio import CampaignStore

        store = CampaignStore(str(tmp_path / "c.jsonl"))
        run_campaign([tiny_instance("a")], ["expansion"], timeout=10,
                     seed=7, store=store)
        loaded = store.load()
        assert loaded.records[0].stats["worker"]["id"]

    def test_existing_stamp_is_kept(self):
        from repro.portfolio.parallel import stamp_worker_identity
        from repro.portfolio.runner import RunRecord

        record = RunRecord("e", "i", Status.UNKNOWN, 0.0,
                           stats={"worker": {"id": "w1", "host": "h"}})
        stamp_worker_identity(record, "other")
        assert record.stats["worker"]["id"] == "w1"
