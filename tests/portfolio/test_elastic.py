"""Tests for elastic multi-worker campaigns (leases + shards + merge)."""

import json
import multiprocessing
import os

import pytest

from repro.core.result import Status
from repro.dqbf.instance import DQBFInstance
from repro.formula.cnf import CNF
from repro.portfolio.elastic import (
    ElasticWorker,
    default_worker_id,
    merge_shards,
    shard_path,
    shard_paths,
)
from repro.portfolio.leases import LeaseLog, lease_log_path
from repro.portfolio.parallel import run_campaign
from repro.portfolio.store import CampaignStore
from repro.utils.errors import ReproError


def tiny_instance(name):
    cnf = CNF([[-2, 1], [2, -1]])
    return DQBFInstance([1], {2: [1]}, cnf, name=name)


def suite(n=3):
    return [tiny_instance("inst-%d" % i) for i in range(n)]


ENGINES = ["manthan3", "expansion"]


def table_key(table):
    return sorted((r.engine, r.instance, r.status, r.certified)
                  for r in table.records)


def serial_reference(instances, tmp_path):
    ref_store = CampaignStore(str(tmp_path / "ref.jsonl"))
    return run_campaign(instances, ENGINES, timeout=10.0, seed=7,
                        store=ref_store)


class TestSingleWorker:
    def test_one_worker_completes_and_matches_serial(self, tmp_path):
        instances = suite()
        store = str(tmp_path / "camp.jsonl")
        summary = ElasticWorker(instances, ENGINES, store,
                                worker_id="w1", timeout=10.0,
                                seed=7).run()
        assert summary["complete"]
        assert not summary["drained"]
        assert summary["executed"] == len(instances) * len(ENGINES)
        assert summary["recovered"] == summary["reclaimed"] == 0
        assert table_key(summary["table"]) \
            == table_key(serial_reference(instances, tmp_path))

    def test_canonical_store_loads_through_campaignstore(self, tmp_path):
        instances = suite(2)
        store = str(tmp_path / "camp.jsonl")
        summary = ElasticWorker(instances, ENGINES, store,
                                worker_id="w1", timeout=10.0,
                                seed=7).run()
        loaded = CampaignStore(store).load()
        assert loaded.timeout == 10.0
        assert table_key(loaded) == table_key(summary["table"])

    def test_records_are_worker_stamped_and_lease_stamped(self, tmp_path):
        instances = suite(1)
        store = str(tmp_path / "camp.jsonl")
        summary = ElasticWorker(instances, ENGINES, store,
                                worker_id="w1", timeout=10.0,
                                seed=7).run()
        for record in summary["table"].records:
            assert record.stats["worker"]["id"] == "w1"
            assert record.stats["worker"]["host"]
            assert record.stats["lease"]["worker"] == "w1"
            assert record.stats["lease"]["claims"] == 1
            assert record.stats["lease"]["reclaims"] == 0

    def test_progress_fires_per_executed_run(self, tmp_path):
        instances = suite(2)
        seen = []
        ElasticWorker(instances, ENGINES,
                      str(tmp_path / "camp.jsonl"), worker_id="w1",
                      timeout=10.0, seed=7,
                      progress=seen.append).run()
        assert sorted((r.engine, r.instance) for r in seen) == sorted(
            (e, i.name) for e in ENGINES for i in instances)


class TestJoinValidation:
    def test_engine_objects_are_refused(self, tmp_path):
        class FakeEngine:
            name = "fake"

        with pytest.raises(ReproError, match="engine names"):
            ElasticWorker(suite(1), [FakeEngine()],
                          str(tmp_path / "camp.jsonl"))

    def test_unknown_engine_is_refused_early(self, tmp_path):
        with pytest.raises(ReproError, match="unknown engine"):
            ElasticWorker(suite(1), ["nope"],
                          str(tmp_path / "camp.jsonl"))

    def test_bad_drain_mode_is_refused(self, tmp_path):
        with pytest.raises(ReproError, match="drain_mode"):
            ElasticWorker(suite(1), ENGINES,
                          str(tmp_path / "camp.jsonl"),
                          drain_mode="abandon")

    def test_mismatched_campaign_parameters_are_refused(self, tmp_path):
        store = str(tmp_path / "camp.jsonl")
        ElasticWorker(suite(1), ENGINES, store, worker_id="w1",
                      timeout=10.0, seed=7).run()
        with pytest.raises(ReproError, match="timeout"):
            ElasticWorker(suite(1), ENGINES, store, worker_id="w2",
                          timeout=5.0, seed=7).run()

    def test_default_worker_id_is_host_pid(self):
        assert default_worker_id().endswith("-%d" % os.getpid())


class TestTwoWorkers:
    def test_concurrent_workers_split_the_jobs(self, tmp_path):
        instances = suite(4)
        store = str(tmp_path / "camp.jsonl")
        ctx = multiprocessing.get_context("fork")

        def worker(worker_id, queue):
            summary = ElasticWorker(
                instances, ENGINES, store, worker_id=worker_id,
                timeout=10.0, seed=7, merge_on_complete=False).run()
            queue.put((worker_id, summary["executed"]))

        queue = ctx.Queue()
        procs = [ctx.Process(target=worker, args=("w%d" % i, queue))
                 for i in (1, 2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(120)
            assert proc.exitcode == 0
        executed = dict(queue.get(timeout=5) for _ in procs)

        # every pair exactly once across the fleet
        total = len(instances) * len(ENGINES)
        assert sum(executed.values()) == total
        table = merge_shards(store)
        pairs = [(r.engine, r.instance) for r in table.records]
        assert len(pairs) == len(set(pairs)) == total
        assert table_key(table) \
            == table_key(serial_reference(instances, tmp_path))

    def test_second_worker_joins_a_finished_campaign(self, tmp_path):
        instances = suite(2)
        store = str(tmp_path / "camp.jsonl")
        ElasticWorker(instances, ENGINES, store, worker_id="w1",
                      timeout=10.0, seed=7).run()
        late = ElasticWorker(instances, ENGINES, store,
                             worker_id="w2", timeout=10.0, seed=7).run()
        assert late["complete"]
        assert late["executed"] == 0


class TestCrashRecovery:
    def test_own_shard_record_is_republished_not_rerun(self, tmp_path):
        # Simulate a worker that died between writing its shard record
        # and publishing the completion: the shard has the record, the
        # lease log does not.  On restart (same id) the worker must
        # re-publish without re-running.
        instances = suite(1)
        store = str(tmp_path / "camp.jsonl")
        first = ElasticWorker(instances, ENGINES, store,
                              worker_id="w1", timeout=10.0, seed=7).run()
        assert first["executed"] == 2
        os.remove(lease_log_path(store))  # forget every completion

        again = ElasticWorker(instances, ENGINES, store,
                              worker_id="w1", timeout=10.0, seed=7).run()
        assert again["complete"]
        assert again["executed"] == 0
        assert again["recovered"] == 2
        assert table_key(again["table"]) == table_key(first["table"])

    def test_other_workers_rerun_a_strangers_unpublished_job(
            self, tmp_path):
        instances = suite(1)
        store = str(tmp_path / "camp.jsonl")
        ElasticWorker(instances, ENGINES, store, worker_id="w1",
                      timeout=10.0, seed=7).run()
        os.remove(lease_log_path(store))

        # A *different* id cannot trust the stranger's shard: it
        # re-runs, and its completion wins at merge.
        again = ElasticWorker(instances, ENGINES, store,
                              worker_id="w2", timeout=10.0, seed=7).run()
        assert again["executed"] == 2
        assert again["recovered"] == 0
        for record in again["table"].records:
            assert record.stats["worker"]["id"] == "w2"


class TestMerge:
    def test_merge_is_idempotent(self, tmp_path):
        instances = suite(2)
        store = str(tmp_path / "camp.jsonl")
        ElasticWorker(instances, ENGINES, store, worker_id="w1",
                      timeout=10.0, seed=7).run()
        with open(store, "rb") as handle:
            first = handle.read()
        merge_shards(store)
        with open(store, "rb") as handle:
            assert handle.read() == first

    def test_merge_write_false_leaves_no_canonical_file(self, tmp_path):
        instances = suite(1)
        store = str(tmp_path / "camp.jsonl")
        ElasticWorker(instances, ENGINES, store, worker_id="w1",
                      timeout=10.0, seed=7, merge_on_complete=False).run()
        assert not os.path.exists(store)
        table = merge_shards(store, write=False)
        assert not os.path.exists(store)
        assert len(table.records) == 2

    def test_shard_paths_only_match_this_campaign(self, tmp_path):
        store = str(tmp_path / "camp.jsonl")
        other = str(tmp_path / "camp2.jsonl")
        for path in (shard_path(store, "w1"), shard_path(other, "w1")):
            with open(path, "w"):
                pass
        assert shard_paths(store) == [shard_path(store, "w1")]

    def test_worker_ids_are_sanitised_in_shard_names(self, tmp_path):
        store = str(tmp_path / "camp.jsonl")
        path = shard_path(store, "host/with spaces:x")
        assert "/" not in os.path.basename(path)
        assert " " not in path and ":" not in os.path.basename(path)


class TestDrain:
    def test_drain_before_start_executes_nothing(self, tmp_path):
        worker = ElasticWorker(suite(2), ENGINES,
                               str(tmp_path / "camp.jsonl"),
                               worker_id="w1", timeout=10.0, seed=7)
        worker.request_drain()
        summary = worker.run()
        assert summary["drained"]
        assert not summary["complete"]
        assert summary["executed"] == 0
        # nothing leased, nothing abandoned
        states = worker.log.resolve()
        assert all(s.owner is None for s in states.values())

    def test_external_cancel_token_drains(self, tmp_path):
        from repro.api.cancellation import CancellationToken

        token = CancellationToken()
        token.cancel()
        summary = ElasticWorker(
            suite(2), ENGINES, str(tmp_path / "camp.jsonl"),
            worker_id="w1", timeout=10.0, seed=7, cancel=token).run()
        assert summary["drained"]
        assert summary["executed"] == 0


class TestSolveBatchElastic:
    def test_facade_elastic_batch_matches_reference(self, tmp_path):
        from repro.api import Problem, Solver, solve_batch

        instances = suite(2)
        problems = [Problem(i) for i in instances]
        solvers = [Solver(name) for name in ENGINES]
        store = str(tmp_path / "camp.jsonl")
        batch = solve_batch(problems, solvers, timeout=10.0, seed=7,
                            store=store, elastic=True, worker_id="w1")
        assert table_key(batch.table) \
            == table_key(serial_reference(instances, tmp_path))

    def test_facade_elastic_requires_store(self):
        from repro.api import Problem, Solver, solve_batch

        with pytest.raises(ReproError, match="store"):
            solve_batch([Problem(tiny_instance("a"))],
                        [Solver("manthan3")], elastic=True)

    def test_facade_elastic_refuses_custom_engine_objects(self, tmp_path):
        from repro.api import Problem, Solver, solve_batch
        from repro.core.result import SynthesisResult

        class Custom:
            name = "custom"

            def run(self, instance, timeout=None):
                return SynthesisResult(Status.UNKNOWN)

        with pytest.raises(ReproError, match="custom"):
            solve_batch([Problem(tiny_instance("a"))],
                        [Solver(Custom())], elastic=True,
                        store=str(tmp_path / "camp.jsonl"))
