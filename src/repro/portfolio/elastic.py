"""Elastic multi-worker campaigns: join/leave/crash at any time.

One campaign, any number of worker processes — on one host or on many
sharing a directory.  There is no coordinator process and no worker is
special; three files per campaign carry everything:

* ``<store>.leases`` — the shared append-only
  :class:`~repro.portfolio.leases.LeaseLog` through which workers
  claim ``(engine, instance)`` jobs, heartbeat their leases, release
  on drain, and publish first-writer-wins completions;
* ``<store>.shard-<worker>`` — a private
  :class:`~repro.portfolio.store.CampaignStore` per worker, where its
  finished records stream (single-writer, so the store's strict
  corruption rules apply unchanged);
* ``<store>`` — the canonical merged campaign, produced by
  :func:`merge_shards` once every pair is complete; downstream
  analytics (``ResultTable``, report, VBS) consume it unchanged.

The protocol makes the campaign itself crash-tolerant:

* a worker SIGKILLed mid-job stops heartbeating; its lease expires and
  any other worker reclaims the job (same derived seed → same record
  the dead worker would have produced);
* a worker that crashed *between* writing its shard record and
  publishing the completion is healed on the next claim: the claimer
  checks its own shard first and re-publishes instead of re-running,
  and a *different* claimer simply re-runs (its completion wins, and
  the stale shard record is ignored at merge);
* each claimed job runs in the campaign pool's forked per-job sandbox
  (:func:`~repro.portfolio.parallel._run_pool` with one slot): a hung
  job is killed past its budget, ``memory_limit_mb`` turns a runaway
  allocation into a clean ``UNKNOWN``, and an engine that kills its
  own process is recorded as crashed — the worker itself survives;
* SIGTERM drains gracefully (:meth:`ElasticWorker.request_drain`):
  the worker stops claiming and either finishes its in-flight job or
  kills it and releases the lease — never abandoning it silently to
  expiry;
* workers may join a live campaign at any time (``repro run-suite
  --elastic --worker-id w2 ...``) and leave whenever they drain.

Determinism: jobs derive the same per-(engine, instance) seeds as
:func:`~repro.portfolio.parallel.run_campaign`, so however many workers
execute, die, or reclaim, the merged table is trajectory-identical to a
single-worker reference run.
"""

import os
import re
import socket
import threading
import time
from glob import glob

from repro.core.result import Status
from repro.portfolio.leases import (
    DEFAULT_LEASE_DURATION,
    HEARTBEAT_FRACTION,
    LeaseLog,
    lease_log_path,
)
from repro.portfolio.parallel import (
    DEFAULT_KILL_GRACE,
    CampaignCache,
    _Job,
    _run_pool,
    resolve_engine_spec,
    stamp_worker_identity,
)
from repro.portfolio.runner import ResultTable
from repro.portfolio.store import (
    FORMAT_VERSION,
    CampaignStore,
    record_to_dict,
)
from repro.utils.errors import ReproError

#: Seconds an idle worker waits before re-reading the lease log when
#: every remaining job is leased to someone else.
DEFAULT_POLL_INTERVAL = 0.25


def _safe_worker_id(worker_id):
    return re.sub(r"[^A-Za-z0-9._-]+", "-", worker_id)


def shard_path(store_path, worker_id):
    """The private shard store of ``worker_id`` for this campaign."""
    return "%s.shard-%s" % (store_path, _safe_worker_id(worker_id))


def shard_paths(store_path):
    """Every worker shard present for this campaign, sorted."""
    return sorted(glob(glob_escape(store_path) + ".shard-*"))


def glob_escape(path):
    return re.sub(r"([*?[])", "[\\1]", path)


def default_worker_id():
    return "%s-%d" % (socket.gethostname(), os.getpid())


class ElasticWorker:
    """One worker process of an elastic campaign.

    Parameters mirror :func:`~repro.portfolio.parallel.run_campaign`
    where they overlap; the elastic-specific ones:

    ``store``
        Path (or :class:`CampaignStore`) of the *canonical* campaign
        file; the lease log and this worker's shard live next to it.
    ``worker_id``
        Stable identity in the lease log and shard name.  Reusing an
        id resumes that worker's shard (crash recovery); two *live*
        workers must never share one.
    ``engines``
        Registry names (strings) only — including ``race:`` groups.
        Engine *objects* cannot join an elastic campaign: every worker
        must be able to rebuild the engine from the shared log alone.
    ``lease_duration`` / ``heartbeat``
        Lease validity window and renewal period (default
        ``duration / 3``): a worker must miss several heartbeats
        before its job is reclaimed.
    ``drain_mode``
        ``"release"`` (default): SIGTERM kills the in-flight solve and
        releases the lease.  ``"finish"``: the in-flight job runs to
        completion first.  Either way no lease is ever abandoned to
        silent expiry.
    ``merge_on_complete``
        When this worker observes the campaign complete, fold every
        shard into the canonical store (atomic and idempotent — safe
        if several workers race to do it).
    ``solution_cache``
        A :class:`~repro.cache.store.SolutionCache` (or path) consulted
        after claiming and before running each job: a re-certified hit
        is published as the job's record immediately (the solve never
        runs; ``summary["cache_hits"]`` counts them), misses run cold
        and get the ``stats["cache"]`` miss block stamped, and decisive
        certified outcomes are stored back.  The on-disk store uses the
        same ``O_APPEND`` discipline as the lease log, so any number of
        concurrent workers may share one cache path.
    ``max_retries`` / ``retry_backoff`` / ``memory_limit_mb``
        The job sandbox's resilience knobs, as in
        :func:`~repro.portfolio.parallel.run_campaign`.
    """

    def __init__(self, instances, engines, store, worker_id=None,
                 timeout=None, seed=None, certify=True,
                 certificate_budget=200_000,
                 lease_duration=DEFAULT_LEASE_DURATION, heartbeat=None,
                 drain_mode="release", progress=None, event_sink=None,
                 cancel=None, poll_interval=DEFAULT_POLL_INTERVAL,
                 merge_on_complete=True, solution_cache=None,
                 max_retries=0, retry_backoff=0.25,
                 memory_limit_mb=None):
        self.store_path = store.path if isinstance(store, CampaignStore) \
            else store
        self.worker_id = worker_id or default_worker_id()
        self.instances = list(instances)
        self.engine_names = []
        for entry in engines:
            if not isinstance(entry, str):
                raise ReproError(
                    "elastic campaigns take engine names, not engine "
                    "objects (%r): every worker must rebuild the "
                    "engine independently" % (entry,))
            resolve_engine_spec(entry)  # validate early, incl. race:
            self.engine_names.append(entry)
        if drain_mode not in ("release", "finish"):
            raise ReproError("drain_mode must be 'release' or 'finish', "
                             "not %r" % (drain_mode,))
        self.timeout = timeout
        self.seed = seed
        self.certify = certify
        self.certificate_budget = certificate_budget
        self.lease_duration = lease_duration
        self.heartbeat = heartbeat or lease_duration / HEARTBEAT_FRACTION
        self.drain_mode = drain_mode
        self.progress = progress
        self.event_sink = event_sink
        self.cancel = cancel
        self.poll_interval = poll_interval
        self.merge_on_complete = merge_on_complete
        self.cache = (CampaignCache(solution_cache, certificate_budget)
                      if solution_cache is not None else None)
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.memory_limit_mb = memory_limit_mb
        self.log = LeaseLog(lease_log_path(self.store_path))
        self._drain = threading.Event()
        self._current_cancel = None

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def request_drain(self):
        """Graceful shutdown (wire this to SIGTERM): stop claiming new
        jobs; in ``release`` mode also kill the in-flight solve so the
        lease is handed back promptly."""
        self._drain.set()
        if self.drain_mode == "release":
            token = self._current_cancel
            if token is not None:
                token.cancel()

    @property
    def draining(self):
        if self._drain.is_set():
            return True
        if self.cancel is not None and self.cancel.cancelled:
            self.request_drain()
            return True
        return False

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self):
        """Claim-execute-complete until the campaign is done or this
        worker drains.  Returns a summary dict (see below)."""
        from repro.api.cancellation import CancellationToken

        meta = {"timeout": self.timeout, "seed": self.seed,
                "certify": self.certify}
        self.log.ensure_meta(meta)

        pairs = []   # canonical instance-major order, as run_campaign
        by_pair = {}
        for instance in self.instances:
            for name in self.engine_names:
                pair = (name, instance.name)
                pairs.append(pair)
                by_pair[pair] = instance

        shard = CampaignStore(shard_path(self.store_path,
                                         self.worker_id))
        own_records = {(r.engine, r.instance): r
                       for r in shard.iter_records()} \
            if shard.exists() else {}
        shard.open(meta=meta, resume=shard.exists())

        summary = {"worker_id": self.worker_id, "executed": 0,
                   "recovered": 0, "reclaimed": 0, "lost_claims": 0,
                   "released": 0, "cache_hits": 0, "drained": False,
                   "complete": False, "table": None}
        try:
            while not self.draining:
                now = time.time()
                states = self.log.resolve()
                target = None
                open_pairs = 0
                for pair in pairs:
                    state = states.get(pair)
                    if state is not None and state.done:
                        continue
                    open_pairs += 1
                    if target is None and (state is None
                                           or state.free(now)):
                        target = pair
                        was_expired = (state is not None
                                       and state.owner is not None)
                if open_pairs == 0:
                    summary["complete"] = True
                    break
                if target is None:  # all open jobs leased elsewhere
                    time.sleep(self.poll_interval)
                    continue
                if not self.log.claim(target, self.worker_id,
                                      self.lease_duration, now=now):
                    summary["lost_claims"] += 1
                    continue
                if was_expired:
                    summary["reclaimed"] += 1
                if target in own_records:
                    # Crash recovery: this worker already ran the job
                    # but died before publishing — publish, don't
                    # re-run.
                    self.log.complete(target, self.worker_id)
                    summary["recovered"] += 1
                    continue

                instance = by_pair[target]
                hit = None
                if self.cache is not None:
                    # Consult the cache under the freshly held lease:
                    # a re-certified hit publishes immediately and the
                    # solve never runs.
                    hit = self.cache.lookup(instance)
                if hit is not None:
                    record = self.cache.hit_record(target[0], instance,
                                                   hit)
                    summary["cache_hits"] += 1
                else:
                    token = CancellationToken()
                    self._current_cancel = token
                    if self.draining and self.drain_mode == "release":
                        token.cancel()
                    record = self._execute(target, instance, token)
                    self._current_cancel = None
                    if record.status == Status.CANCELLED:
                        # drained mid-solve: hand the job back explicitly
                        self.log.release(target, self.worker_id)
                        summary["released"] += 1
                        break
                    if self.cache is not None:
                        self.cache.settle(instance, record)
                    record.result = None  # kept only for the store-back
                stamp_worker_identity(record, self.worker_id)
                shard.append(record)
                own_records[target] = record
                self.log.complete(target, self.worker_id)
                summary["executed"] += 1
                if self.progress is not None:
                    self.progress(record)
        finally:
            shard.close()

        summary["drained"] = self.draining
        if not summary["complete"]:
            states = self.log.resolve()
            summary["complete"] = all(
                states.get(pair) is not None and states[pair].done
                for pair in pairs)
        if summary["complete"] and self.merge_on_complete:
            summary["table"] = merge_shards(self.store_path,
                                            pairs=pairs)
        return summary

    def _execute(self, pair, instance, token):
        """Run one claimed job in the pool's forked sandbox — a one-job,
        one-slot :func:`~repro.portfolio.parallel._run_pool` — while a
        heartbeat thread renews its lease."""
        spec = resolve_engine_spec(pair[0])
        job = _Job(index=0, engine_name=pair[0], engine=None,
                   instance=instance,
                   seed=spec.job_seed(self.seed, instance.name))
        stop = threading.Event()

        def beat():
            while not stop.wait(self.heartbeat):
                try:
                    self.log.renew(pair, self.worker_id,
                                   self.lease_duration)
                except OSError:
                    pass  # a missed heartbeat only shortens the lease

        # The sandbox forks with this thread alive; that is safe because
        # renewals take no lock the child uses (a bare os.open/os.write).
        records = []
        heart = threading.Thread(target=beat, daemon=True)
        heart.start()
        try:
            _run_pool([job], self.timeout, self.certify,
                      self.certificate_budget, 1, DEFAULT_KILL_GRACE,
                      lambda _index, record: records.append(record),
                      event_sink=self.event_sink, cancel=token,
                      keep_result=self.cache is not None,
                      max_retries=self.max_retries,
                      retry_backoff=self.retry_backoff,
                      memory_limit_mb=self.memory_limit_mb,
                      worker_id=self.worker_id)
        finally:
            stop.set()
            heart.join()
        return records[0]

    def __repr__(self):
        return "ElasticWorker(%r, store=%r)" % (self.worker_id,
                                                self.store_path)


def merge_shards(store_path, pairs=None, write=True):
    """Fold every worker shard into the canonical campaign store.

    The lease log's first-writer-wins completion records decide which
    worker's record is canonical for each pair (a stale worker that
    finished after its lease was reclaimed loses); pairs completed in
    a shard but never published fall back to the lowest worker id.
    Each canonical record is stamped with
    ``stats["lease"] = {"claims", "reclaims", "worker"}``, so the
    merged table remains attributable and ``--report`` can count
    reclaimed leases.

    The canonical file is written atomically (temp file +
    ``os.replace``) and the fold is deterministic, so concurrent
    merges by several workers are idempotent.  Returns the merged
    :class:`ResultTable`; ``write=False`` only builds the table.
    """
    log = LeaseLog(lease_log_path(store_path))
    meta = log.read_meta() or {}
    states = log.resolve()

    by_worker = {}  # worker id -> {(engine, instance): record}
    for path in shard_paths(store_path):
        for record in CampaignStore(path).iter_records():
            worker = (record.stats.get("worker") or {}).get("id")
            if worker is None:
                continue
            by_worker.setdefault(worker, {})[
                (record.engine, record.instance)] = record

    all_pairs = set()
    for records in by_worker.values():
        all_pairs.update(records)
    all_pairs.update(states)
    if pairs is not None:
        all_pairs &= set(pairs)
    # sorted canonical order whether or not the campaign's pair list
    # was supplied, so re-merging is byte-identical (idempotent)
    ordered = sorted(all_pairs)

    merged = []
    for pair in ordered:
        state = states.get(pair)
        record = None
        if state is not None and state.done_by is not None:
            record = by_worker.get(state.done_by, {}).get(pair)
        if record is None:
            for worker in sorted(by_worker):
                record = by_worker[worker].get(pair)
                if record is not None:
                    break
        if record is None:
            continue  # leased/failed but never finished anywhere
        if state is not None:
            record.stats["lease"] = {
                "claims": state.claims, "reclaims": state.reclaims,
                "worker": (record.stats.get("worker") or {}).get("id")}
        merged.append(record)

    if write:
        header = {"type": "campaign", "version": FORMAT_VERSION,
                  "timeout": meta.get("timeout"),
                  "seed": meta.get("seed"),
                  "certify": meta.get("certify", True)}
        import json

        tmp = "%s.merge-%s-%d" % (store_path, socket.gethostname(),
                                  os.getpid())
        with open(tmp, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for record in merged:
                handle.write(json.dumps(record_to_dict(record),
                                        sort_keys=True) + "\n")
        os.replace(tmp, store_path)

    return ResultTable(merged, timeout=meta.get("timeout"))
