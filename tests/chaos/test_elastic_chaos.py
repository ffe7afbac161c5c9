"""Chaos layer, elastic level: workers killed and drained mid-campaign.

The lease protocol's whole reason to exist is exercised here: workers
are SIGKILLed while holding leases and SIGTERMed mid-solve, and the
campaign must still converge — every (engine, instance) pair completed
exactly once in the merged canonical store, with the same
statuses-and-pairs table a single undisturbed worker produces.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.result import Status, SynthesisResult
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.portfolio.elastic import (
    ElasticWorker,
    merge_shards,
    shard_path,
)
from repro.portfolio.leases import LeaseLog, lease_log_path
from repro.portfolio.parallel import ENGINE_SPECS, derive_job_seed
from repro.portfolio.store import CampaignStore


def tiny_instance(name):
    cnf = CNF([[-2, 1], [2, -1]])
    return DQBFInstance([1], {2: [1]}, cnf, name=name)


class _DawdleSpec:
    """Registry spec for a cancellable engine that takes ``delay``
    seconds per run — long enough to land a signal mid-solve.  The
    spec is injected into ENGINE_SPECS before workers fork, so child
    processes inherit it."""

    name = "dawdle"
    description = "test-only: slow but cooperative engine"

    def __init__(self, delay=0.4):
        self.delay = delay

    def build(self, seed):
        return _DawdleEngine(self.delay)

    def job_seed(self, campaign_seed, instance_name):
        return derive_job_seed(campaign_seed, self.name, instance_name)


class _DawdleEngine:
    name = "dawdle"
    supports_events = True

    def __init__(self, delay):
        self.delay = delay

    def run(self, instance, timeout=None, listeners=None, cancel=None):
        deadline = time.monotonic() + self.delay
        while time.monotonic() < deadline:
            if cancel is not None and cancel.cancelled:
                return SynthesisResult(Status.CANCELLED,
                                       reason="cancelled")
            time.sleep(0.01)
        return SynthesisResult(Status.SYNTHESIZED,
                               functions={2: bf.var(1)},
                               stats={"wall_time": 0.4})


@pytest.fixture
def dawdle():
    ENGINE_SPECS["dawdle"] = _DawdleSpec()
    try:
        yield
    finally:
        del ENGINE_SPECS["dawdle"]


def _spawn_worker(ctx, instances, engines, store, worker_id,
                  lease_duration, install_sigterm_drain=False):
    def main():
        worker = ElasticWorker(instances, engines, store,
                               worker_id=worker_id, timeout=10.0,
                               seed=7, lease_duration=lease_duration,
                               merge_on_complete=False)
        if install_sigterm_drain:
            signal.signal(signal.SIGTERM,
                          lambda *_a: worker.request_drain())
        worker.run()

    proc = ctx.Process(target=main)
    proc.start()
    return proc


def _wait_for_lease(store, timeout=30.0):
    """Block until some worker holds a live lease."""
    log = LeaseLog(lease_log_path(store))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        now = time.time()
        if any(s.held(now) for s in log.resolve().values()):
            return True
        time.sleep(0.02)
    return False


class TestSigkillConvergence:
    def test_killed_worker_is_reclaimed_and_tables_converge(
            self, tmp_path, dawdle):
        # Acceptance scenario: two workers share a store, one is
        # SIGKILLed while holding a lease, a replacement joins, and the
        # final merged table equals the single-worker reference — every
        # pair exactly once, with at least one reclaimed lease.
        instances = [tiny_instance("inst-%d" % i) for i in range(3)]
        engines = ["dawdle"]
        store = str(tmp_path / "camp.jsonl")
        lease_duration = 1.0
        ctx = multiprocessing.get_context("fork")

        victim = _spawn_worker(ctx, instances, engines, store, "w1",
                               lease_duration)
        assert _wait_for_lease(store)
        os.kill(victim.pid, signal.SIGKILL)  # mid-solve, lease held
        victim.join(30)

        survivor = _spawn_worker(ctx, instances, engines, store, "w2",
                                 lease_duration)
        survivor.join(60)
        assert survivor.exitcode == 0

        table = merge_shards(store)
        pairs = [(r.engine, r.instance) for r in table.records]
        assert sorted(pairs) == sorted(
            (e, i.name) for e in engines for i in instances)
        assert len(pairs) == len(set(pairs))

        # the reference: one undisturbed worker in a fresh directory
        ref = ElasticWorker(
            instances, engines, str(tmp_path / "ref.jsonl"),
            worker_id="ref", timeout=10.0, seed=7).run()["table"]
        assert sorted((r.engine, r.instance, r.status)
                      for r in table.records) \
            == sorted((r.engine, r.instance, r.status)
                      for r in ref.records)

        # the killed worker's lease was reclaimed, and the merge
        # surfaced that in the canonical records
        reclaims = sum(r.stats["lease"]["reclaims"]
                       for r in table.records)
        assert reclaims >= 1

    def test_stale_completion_after_reclaim_never_wins(self, tmp_path):
        # A worker that silently stalls (no heartbeat) loses its lease;
        # when it wakes and completes late, the reclaimer's earlier
        # completion must stay canonical.
        store = str(tmp_path / "camp.jsonl")
        log = LeaseLog(lease_log_path(store))
        job = ("dawdle", "inst-0")
        log.ensure_meta({"timeout": 10.0, "seed": 7, "certify": True})
        assert log.claim(job, "stale", duration=0.1, now=100.0)
        assert log.claim(job, "fresh", duration=30.0, now=101.0)
        log.complete(job, "fresh", now=102.0)
        log.complete(job, "stale", now=103.0)  # woke up too late

        from repro.portfolio.runner import RunRecord

        for worker, status in (("stale", Status.UNKNOWN),
                               ("fresh", Status.SYNTHESIZED)):
            with CampaignStore(shard_path(store, worker)) as shard:
                shard.open(meta={})
                shard.append(RunRecord(
                    job[0], job[1], status, 0.1,
                    stats={"worker": {"id": worker, "host": "h"}}))
        table = merge_shards(store)
        assert len(table.records) == 1
        assert table.records[0].status == Status.SYNTHESIZED
        assert table.records[0].stats["worker"]["id"] == "fresh"


class TestSigtermDrain:
    def test_sigterm_releases_the_lease_and_writes_no_record(
            self, tmp_path, dawdle):
        # Graceful drain, release mode: the in-flight solve is
        # stopped, the lease is handed back (not
        # abandoned to expiry), and no half-run record leaks into the
        # shard.
        instances = [tiny_instance("inst-%d" % i) for i in range(3)]
        engines = ["dawdle"]
        store = str(tmp_path / "camp.jsonl")
        ctx = multiprocessing.get_context("fork")

        worker = _spawn_worker(ctx, instances, engines, store, "w1",
                               lease_duration=30.0,
                               install_sigterm_drain=True)
        assert _wait_for_lease(store)
        os.kill(worker.pid, signal.SIGTERM)
        worker.join(30)
        assert worker.exitcode == 0

        # the lease came back via an explicit release: the job is
        # immediately free although the 30 s lease could not have
        # expired on its own
        log = LeaseLog(lease_log_path(store))
        states = log.resolve()
        now = time.time()
        assert all(s.owner is None for s in states.values())
        open_jobs = [s for s in states.values() if not s.done]
        assert open_jobs  # drained before finishing everything
        assert all(s.free(now) for s in open_jobs)

        # no CANCELLED record leaked into the drained worker's shard
        shard = CampaignStore(shard_path(store, "w1"))
        if shard.exists():
            for record in shard.iter_records():
                assert record.status != Status.CANCELLED

        # a replacement finishes the campaign without reclaims
        summary = ElasticWorker(
            instances, engines, store, worker_id="w2", timeout=10.0,
            seed=7, lease_duration=30.0).run()
        assert summary["complete"]
        assert summary["reclaimed"] == 0
        table = summary["table"]
        assert sorted((r.engine, r.instance) for r in table.records) \
            == sorted((e, i.name) for e in engines for i in instances)

    def test_finish_drain_completes_the_inflight_job(self, tmp_path,
                                                     dawdle):
        instances = [tiny_instance("inst-%d" % i) for i in range(3)]
        store = str(tmp_path / "camp.jsonl")
        worker = ElasticWorker(instances, ["dawdle"], store,
                               worker_id="w1", timeout=10.0, seed=7,
                               drain_mode="finish",
                               merge_on_complete=False)

        # drain as soon as the first record lands: with "finish" the
        # in-flight job completes and only *then* the worker stops
        def drain_after_first(record):
            worker.request_drain()

        worker.progress = drain_after_first
        summary = worker.run()
        assert summary["drained"]
        assert summary["executed"] == 1
        assert summary["released"] == 0
        states = LeaseLog(lease_log_path(store)).resolve()
        assert sum(1 for s in states.values() if s.done) == 1


class _EngineSpec:
    """Registry spec for a test-only engine class (registered before
    workers fork, like the dawdle spec)."""

    description = "test-only engine"

    def __init__(self, cls):
        self.name = cls.name
        self.cls = cls

    def build(self, seed):
        return self.cls()

    def job_seed(self, campaign_seed, instance_name):
        return derive_job_seed(campaign_seed, self.name, instance_name)


class _SelfKillEngine:
    """SIGKILLs its own process on ``inst-0``; solves everything else."""

    name = "selfkill"

    def run(self, instance, timeout=None):
        if instance.name == "inst-0":
            os.kill(os.getpid(), signal.SIGKILL)
        return SynthesisResult(Status.SYNTHESIZED,
                               functions={2: bf.var(1)},
                               stats={"wall_time": 0.01})


class _HangEngine:
    """Ignores its deadline and any cancel: only a kill stops it."""

    name = "hang"

    def run(self, instance, timeout=None):
        time.sleep(20)
        return SynthesisResult(Status.SYNTHESIZED,
                               functions={2: bf.var(1)},
                               stats={"wall_time": 20.0})


class _AllocEngine:
    """Allocates far past any sane ceiling — but only under one, so a
    dropped ceiling cannot take the host's memory."""

    name = "alloc"

    def run(self, instance, timeout=None):
        import resource

        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        if soft == resource.RLIM_INFINITY:
            return SynthesisResult(Status.UNKNOWN, reason="no ceiling")
        buf = bytearray(1 << 42)
        return SynthesisResult(Status.UNKNOWN, stats={"len": len(buf)})


@pytest.fixture
def test_engines():
    specs = [_EngineSpec(cls)
             for cls in (_SelfKillEngine, _HangEngine, _AllocEngine)]
    for spec in specs:
        ENGINE_SPECS[spec.name] = spec
    try:
        yield
    finally:
        for spec in specs:
            del ENGINE_SPECS[spec.name]


class TestSandboxedJobs:
    """Elastic jobs run in the pool's forked sandbox: a job that kills
    itself, hangs, or runs out of memory ends as a record, and the
    worker that claimed it lives on."""

    def test_self_killing_job_is_recorded_and_the_worker_finishes(
            self, tmp_path, test_engines):
        instances = [tiny_instance("inst-%d" % i) for i in range(3)]
        store = str(tmp_path / "camp.jsonl")
        ctx = multiprocessing.get_context("fork")
        worker = _spawn_worker(ctx, instances, ["selfkill"], store, "w1",
                               lease_duration=30.0)
        worker.join(60)
        assert worker.exitcode == 0

        records = {r.instance: r for r in
                   CampaignStore(shard_path(store, "w1")).iter_records()}
        assert sorted(records) == ["inst-0", "inst-1", "inst-2"]
        crashed = records["inst-0"]
        assert crashed.status == Status.UNKNOWN
        assert crashed.stats["crashed"] is True
        assert crashed.stats["worker"]["id"] == "w1"
        assert records["inst-1"].status == Status.SYNTHESIZED
        states = LeaseLog(lease_log_path(store)).resolve()
        assert all(s.done and s.done_by == "w1" for s in states.values())

    def test_memory_limit_reaches_elastic_jobs(self, tmp_path,
                                               test_engines):
        pytest.importorskip("resource")
        from repro.api import solve_batch

        batch = solve_batch([tiny_instance("a")], ["alloc"], timeout=10.0,
                            seed=7, store=str(tmp_path / "camp.jsonl"),
                            elastic=True, worker_id="w1",
                            memory_limit_mb=256)
        record = batch.table.record_for("alloc", "a")
        assert record.status == Status.UNKNOWN
        assert record.stats.get("oom") is True
        assert "address-space ceiling 256 MB" in record.reason

    def test_hung_job_is_killed_under_a_sigterm_drain_handler(
            self, tmp_path, test_engines):
        from repro.portfolio.parallel import DEFAULT_KILL_GRACE

        timeout = 0.3
        worker = ElasticWorker([tiny_instance("a")], ["hang"],
                               str(tmp_path / "camp.jsonl"),
                               worker_id="w1", timeout=timeout, seed=7)
        previous = signal.signal(signal.SIGTERM,
                                 lambda *_a: worker.request_drain())
        try:
            started = time.monotonic()
            summary = worker.run()
            elapsed = time.monotonic() - started
        finally:
            signal.signal(signal.SIGTERM, previous)
        record = summary["table"].record_for("hang", "a")
        assert record.status == Status.TIMEOUT
        assert record.stats["killed"] is True
        assert timeout + DEFAULT_KILL_GRACE <= record.stats["wall_time"]
        assert elapsed < timeout + DEFAULT_KILL_GRACE + 5

    def test_release_drain_of_a_hung_job_returns_promptly(
            self, tmp_path, test_engines):
        store = str(tmp_path / "camp.jsonl")
        ctx = multiprocessing.get_context("fork")
        worker = _spawn_worker(ctx, [tiny_instance("a")], ["hang"], store,
                               "w1", lease_duration=30.0,
                               install_sigterm_drain=True)
        try:
            assert _wait_for_lease(store)
            time.sleep(0.3)  # let the claimed job start hanging
            started = time.monotonic()
            os.kill(worker.pid, signal.SIGTERM)
            worker.join(10)
            elapsed = time.monotonic() - started
            assert worker.exitcode == 0
        finally:
            if worker.is_alive():
                worker.kill()
                worker.join()
        assert elapsed < 5
        state = LeaseLog(lease_log_path(store)).resolve()[("hang", "a")]
        assert state.owner is None and not state.done
