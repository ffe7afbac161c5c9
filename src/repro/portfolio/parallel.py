"""Process-parallel campaign execution.

The paper's evaluation is a campaign: every engine on every instance
under a wall-clock budget, with every claim certified.  This module
runs those (engine, instance) jobs.  ``jobs=1`` runs them in-process
(cooperative cancellation, live engine objects); every other job runs
in the forked per-job sandbox of :func:`_run_pool` — the pool's
``jobs > 1`` workers and each job an elastic worker
(:mod:`repro.portfolio.elastic`) claims alike:

* **Isolation** — each run executes in its own forked process, so a
  pathological instance cannot corrupt or starve its siblings.
* **Hard timeouts** — the worker passes the budget to the engine's
  cooperative :class:`~repro.utils.timer.Deadline`; if the engine fails
  to unwind (stuck in a tight SAT inner loop), the parent kills the
  worker ``kill_grace`` seconds past the budget and records ``TIMEOUT``.
* **Bounded failure** — ``memory_limit_mb`` caps each worker's address
  space (an OOM becomes a clean ``UNKNOWN``), and ``max_retries``
  re-runs killed or crashed jobs.
* **Deterministic seeding** — engines named by string are built fresh
  in the worker with :func:`derive_job_seed`, a pure function of
  (campaign seed, engine, instance).  Results are therefore identical
  for any ``jobs`` value and any completion order.
* **Worker-side certification** — the worker certifies its own claim
  (:func:`~repro.portfolio.runner.evaluate_run`), so certification is
  parallelised too and the parent only aggregates finished records.
* **Persistence** — with a :class:`~repro.portfolio.store.CampaignStore`
  each record streams to disk the moment it completes, and
  ``resume=True`` skips pairs the store already holds.

:func:`run_campaign` is the orchestrator.
"""
import multiprocessing
import os
import signal
import socket
import time
import zlib
from collections import deque

from repro.cache import cache_lookup, cache_store, ensure_cache
from repro.core.result import Status
from repro.portfolio.runner import ResultTable, RunRecord, evaluate_run
from repro.sat.backend import backend_available
from repro.utils.errors import ReproError

#: Seconds past the per-run budget before the parent kills a worker
#: that failed to unwind cooperatively.
DEFAULT_KILL_GRACE = 5.0

_POLL_INTERVAL = 0.05
#: Seconds to wait for a dead worker's pipe to drain before declaring
#: the run crashed (the result may still be in the OS pipe buffer).
_DEATH_GRACE = 1.0


# ----------------------------------------------------------------------
# engine registry: declarative specs
# ----------------------------------------------------------------------
class PipelineEngineSpec:
    """A Manthan3 variant as *data*: a phase list plus config overrides.

    Every Manthan3 portfolio engine — the default, the A/B substrate
    baselines, and the ablations — differs only in which pipeline
    phases run and which ``Manthan3Config`` fields deviate from the
    defaults.  The registry therefore stores exactly that, instead of a
    bespoke builder closure per engine: adding an ablation engine is
    one data entry, not a code fork.
    """

    __slots__ = ("name", "overrides", "phases", "description")

    def __init__(self, name, overrides=None, phases=None, description=""):
        self.name = name
        self.overrides = dict(overrides or {})
        self.phases = tuple(phases) if phases is not None else None
        self.description = description

    def build(self, seed):
        from repro.core import Manthan3, Manthan3Config

        config = Manthan3Config(seed=seed, **self.overrides)
        engine = Manthan3(config, phases=self.phases)
        engine.name = self.name
        return engine

    def job_seed(self, campaign_seed, instance_name):
        """The seed one job of this engine derives from the campaign
        seed (see :func:`derive_job_seed`)."""
        return derive_job_seed(campaign_seed, self.name, instance_name)


class BaselineEngineSpec:
    """A baseline engine, named by its class in :mod:`repro.baselines`."""

    __slots__ = ("name", "cls", "description")

    def __init__(self, name, cls, description=""):
        self.name = name
        self.cls = cls
        self.description = description

    def build(self, seed):
        import repro.baselines as baselines

        return getattr(baselines, self.cls)(seed=seed)

    def job_seed(self, campaign_seed, instance_name):
        return derive_job_seed(campaign_seed, self.name, instance_name)


#: Prefix of dynamic racing engine groups: ``race:<a>+<b>[+<c>...]``
#: runs the named specs concurrently on each instance and cancels the
#: losers the moment one reaches a decisive verdict (see
#: :mod:`repro.portfolio.racing`).
RACE_PREFIX = "race:"


class RaceEngineSpec:
    """A racing *group* of registered specs, built on demand from a
    ``race:<a>+<b>`` name — never stored in :data:`ENGINE_SPECS`
    (groups are combinatorial; :func:`resolve_engine_spec` constructs
    them)."""

    __slots__ = ("name", "members", "description")

    def __init__(self, name, members, description=""):
        self.name = name
        self.members = tuple(members)
        self.description = description or \
            "first-winner race of %s" % "+".join(members)

    def build(self, seed):
        from repro.portfolio.racing import RacingEngine

        # ``seed`` is the *campaign* seed (see job_seed): each member
        # derives its own per-(member, instance) seed inside the race,
        # so the winner's trajectory equals its solo campaign run.
        return RacingEngine(self.name, self.members, campaign_seed=seed)

    def job_seed(self, campaign_seed, instance_name):
        return campaign_seed


def parse_race_members(name):
    """The member spec names of a ``race:`` group name, validated."""
    members = [m.strip() for m in name[len(RACE_PREFIX):].split("+")
               if m.strip()]
    if len(members) < 2:
        raise ReproError(
            "race group %r needs at least two '+'-separated engines "
            "(e.g. 'race:manthan3+expansion')" % name)
    if len(set(members)) != len(members):
        raise ReproError("race group %r lists the same engine twice "
                         "(identical seeds would race identical runs)"
                         % name)
    unknown = [m for m in members if m not in ENGINE_SPECS]
    if unknown:
        raise ReproError(
            "race group %r names unknown engines %s (choose from %s); "
            "race members must be registered specs, not nested groups"
            % (name, ", ".join(unknown), ", ".join(engine_names())))
    return members


def resolve_engine_spec(name):
    """Look up a registered spec, or construct a ``race:`` group spec.

    The single resolution point behind :func:`make_engine`, the
    :class:`~repro.api.Solver` façade, campaign scheduling, and the
    CLI's engine validation.
    """
    spec = ENGINE_SPECS.get(name)
    if spec is not None:
        return spec
    if name.startswith(RACE_PREFIX):
        return RaceEngineSpec(name, parse_race_members(name))
    raise ReproError("unknown engine %r (choose from %s, or a "
                     "'race:<a>+<b>' group)"
                     % (name, ", ".join(engine_names())))


#: ``name -> spec``.  The single registry behind the CLI's
#: ``--engine``/``--engines`` options and worker-side engine
#: construction; specs are declarative (see :class:`PipelineEngineSpec`)
#: so engine variants are data, not builder code.
ENGINE_SPECS = {spec.name: spec for spec in (
    PipelineEngineSpec(
        "manthan3",
        description="full pipeline: incremental sessions + bit-parallel"),
    PipelineEngineSpec(
        "manthan3-fresh", overrides={"incremental": False},
        description="fresh-solver fallback (oracle-session A/B baseline)"),
    PipelineEngineSpec(
        "manthan3-rowwise", overrides={"bitparallel": False},
        description="dict-row learning (bit-parallel A/B baseline)"),
    PipelineEngineSpec(
        "manthan3-emulated",
        overrides={"sat_backend": "python-emulated"},
        description="oracle on the selector-emulated group layer "
                    "(SatBackend A/B baseline)"),
    PipelineEngineSpec(
        "manthan3-nopre",
        phases=("unit_fastpath", "sample", "learn", "order",
                "verify_repair"),
        description="ablation: preprocessing phase removed"),
    PipelineEngineSpec(
        "manthan3-noselfsub", overrides={"use_self_substitution": False},
        description="ablation: self-substitution fallback disabled"),
    BaselineEngineSpec("expansion", "ExpansionSynthesizer",
                       description="HQS-like universal expansion"),
    BaselineEngineSpec("pedant", "PedantLikeSynthesizer",
                       description="definition-based (Pedant-like)"),
    BaselineEngineSpec("skolem", "SkolemCompositionSynthesizer",
                       description="Skolem composition"),
    BaselineEngineSpec("bdd", "BDDSynthesizer",
                       description="BDD-based synthesis"),
)}

# The PySAT-backed engine exists only where python-sat is installed, so
# engine_names() always lists exactly what this environment can build
# (the CI backend leg installs the package and campaigns it).
if backend_available("pysat"):
    ENGINE_SPECS["manthan3-pysat"] = PipelineEngineSpec(
        "manthan3-pysat", overrides={"sat_backend": "pysat"},
        description="oracle on the native PySAT backend "
                    "(requires python-sat)")


def engine_names():
    """Registered engine names, sorted."""
    return sorted(ENGINE_SPECS)


def make_engine(name, seed=None):
    """Build a registered engine (or ``race:`` group) by name."""
    return resolve_engine_spec(name).build(seed)


def derive_job_seed(base_seed, engine_name, instance_name):
    """Deterministic per-job seed.

    A pure function of (campaign seed, engine, instance), so every
    worker — whatever the pool size or completion order — seeds a given
    job identically, and a resumed campaign re-derives the same seeds.
    ``None`` propagates (an unseeded campaign stays unseeded).
    """
    if base_seed is None:
        return None
    key = ("%d:%s:%s" % (base_seed, engine_name, instance_name)).encode()
    return zlib.crc32(key) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
class _Job:
    """One (engine, instance) unit of work.

    ``engine`` is either a live engine object (reused/pickled as-is) or
    ``None``, in which case the executing side builds the engine from
    ``engine_name`` and the derived ``seed``.

    ``attempts`` counts executions so far (retries re-run the job with
    the *same* derived seed, so an eventually-successful retry produces
    the record the fault-free campaign would have); ``lost_time`` sums
    the parent-observed wall time of the failed attempts.
    """

    __slots__ = ("index", "engine_name", "engine", "instance", "seed",
                 "attempts", "lost_time")

    def __init__(self, index, engine_name, engine, instance, seed):
        self.index = index
        self.engine_name = engine_name
        self.engine = engine
        self.instance = instance
        self.seed = seed
        self.attempts = 1
        self.lost_time = 0.0


def _execute_job(job, timeout, certify, certificate_budget,
                 listener=None, cancel=None, keep_result=False,
                 engine_done=None):
    """Run one job through the :mod:`repro.api` façade.

    Both the serial scheduler and the pool workers execute here: the
    engine is wrapped in (or rebuilt through) an
    :class:`~repro.api.Solver`, ``listener`` observes the solve's typed
    event stream, and ``engine_done`` (if given) is invoked between the
    engine run and certification — the worker's kill-exemption marker.
    """
    from repro.api.problem import Problem
    from repro.api.solver import Solver

    if job.engine is None:
        solver = Solver(job.engine_name, seed=job.seed)
    else:
        solver = Solver(job.engine, name=job.engine_name)
    if listener is not None:
        solver.subscribe(listener)
    solution = solver.solve(Problem.from_instance(job.instance),
                            timeout=timeout, cancel=cancel)
    if engine_done is not None:
        engine_done()
    return evaluate_run(job.engine_name, job.instance, solution.result,
                        certify=certify,
                        certificate_budget=certificate_budget,
                        keep_result=keep_result)


def stamp_worker_identity(record, worker_id=None):
    """Stamp the executing worker's identity into ``record.stats``.

    Every run record — serial, pool, or elastic — carries
    ``stats["worker"] = {"id", "host"}`` (store round-tripped), so a
    merged multi-worker campaign stays attributable per record in
    ``--report``.  ``setdefault`` keeps an earlier stamp (e.g. an
    elastic worker's explicit id) authoritative.
    """
    host = socket.gethostname()
    record.stats.setdefault(
        "worker", {"id": worker_id or "%s-%d" % (host, os.getpid()),
                   "host": host})
    return record


#: Phase marker a worker sends once its engine run is over: the job is
#: then certifying (bounded by the certificate conflict budget, not the
#: engine wall clock), so the parent exempts it from the hard kill —
#: otherwise jobs finishing near the budget would be killed
#: mid-certification under ``jobs > 1`` but certify fine under
#: ``jobs=1``, breaking the equal-results-for-any-jobs guarantee.
_ENGINE_DONE = "engine-done"

#: Tag of an event message a worker relays up its pipe (followed by the
#: pickled :class:`repro.core.events.Event`); the parent stamps the
#: job identity on it and forwards it to the campaign's ``event_sink``.
_EVENT_TAG = "repro-event"


def _apply_memory_limit(memory_limit_mb):
    """Best-effort per-worker address-space ceiling (RLIMIT_AS).

    Turns a runaway allocation into an in-process ``MemoryError`` —
    which the worker converts to a clean UNKNOWN record — instead of an
    OS-level OOM kill that would surface as an opaque crash.  Silently
    a no-op where the platform refuses the limit.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return
    limit = int(memory_limit_mb) << 20
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (OSError, ValueError):
        pass


def _worker_main(job, timeout, certify, certificate_budget, conn,
                 relay_events=False, keep_result=False,
                 memory_limit_mb=None, worker_id=None):
    """Sandboxed worker: run one job, send its record up the private
    pipe, stamped with ``worker_id`` (default ``<host>-<pid>``)."""
    # The fork inherits the parent's Python signal handlers; an elastic
    # worker's SIGTERM drain handler would swallow the parent's
    # terminate() and leave the kill waiting on the whole job.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if memory_limit_mb is not None:
        _apply_memory_limit(memory_limit_mb)
    try:
        listener = None
        if relay_events:
            def listener(event):
                conn.send((_EVENT_TAG, event))
        record = _execute_job(job, timeout, certify, certificate_budget,
                              listener=listener, keep_result=keep_result,
                              engine_done=lambda: conn.send(_ENGINE_DONE))
    except MemoryError:
        # A clean, final verdict — deliberately not retryable: the same
        # job under the same ceiling would just OOM again.
        record = RunRecord(
            job.engine_name, job.instance.name, Status.UNKNOWN, 0.0,
            reason="worker out of memory"
                   + (" (address-space ceiling %d MB)" % memory_limit_mb
                      if memory_limit_mb is not None else ""),
            stats={"oom": True})
    except Exception as exc:  # engine bug: report, don't sink the pool
        record = RunRecord(job.engine_name, job.instance.name,
                           Status.UNKNOWN, 0.0,
                           reason="worker error: %r" % (exc,))
    stamp_worker_identity(record, worker_id)
    try:
        try:
            conn.send(record)
        except Exception:
            # The attached result did not pickle (e.g. partial functions
            # nested past the recursion limit): the verdict, time,
            # reason, stats and certification still ship without it.
            record.result = None
            conn.send(record)
    except Exception:
        conn.send(RunRecord(job.engine_name, job.instance.name,
                            Status.UNKNOWN, 0.0,
                            reason="worker result not serializable"))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
def _run_serial(jobs, timeout, certify, certificate_budget, emit,
                event_sink=None, cancel=None, keep_result=False):
    for job in jobs:
        if cancel is not None and cancel.cancelled:
            emit(job.index, _cancelled_record(job))
            continue
        listener = None
        if event_sink is not None:
            def listener(event, _job=job):
                event_sink(_job.engine_name, _job.instance.name, event)
        emit(job.index,
             stamp_worker_identity(
                 _execute_job(job, timeout, certify, certificate_budget,
                              listener=listener, cancel=cancel,
                              keep_result=keep_result)))


def _cancelled_record(job, started=False):
    return RunRecord(
        job.engine_name, job.instance.name, Status.CANCELLED, 0.0,
        reason="campaign cancelled %s" % ("mid-run" if started
                                          else "before start"),
        stats={"cancelled": True})


def _killed_record(job, timeout, kill_grace, elapsed):
    """TIMEOUT record for a hung worker the parent had to kill.

    ``time`` stays at the budget (the PAR-scoring convention for
    timeouts); ``stats["wall_time"]`` records the *actual* parent-side
    elapsed wall time, and ``kill_reason`` distinguishes the hard kill
    from a cooperative timeout so ``--report`` can break the two out.
    """
    return RunRecord(
        job.engine_name, job.instance.name, Status.TIMEOUT,
        timeout or 0.0,
        reason="hung worker killed %.1fs past the %.1fs budget"
               % (kill_grace, timeout or 0.0),
        stats={"wall_time": round(elapsed, 6), "killed": True,
               "kill_reason": "hung"})


def _crashed_record(job, exitcode, elapsed=0.0, certifying=False):
    """UNKNOWN record for a worker that died before reporting.

    ``stats["wall_time"]`` is the parent-observed elapsed time and
    ``crash_phase`` says whether the worker died running the engine or
    afterwards, certifying its claim.
    """
    phase = "certification" if certifying else "engine"
    return RunRecord(
        job.engine_name, job.instance.name, Status.UNKNOWN, 0.0,
        reason="worker exited with code %r during %s before reporting"
               % (exitcode, phase),
        stats={"crashed": True, "wall_time": round(elapsed, 6),
               "crash_phase": phase})


class _Slot:
    """Parent-side bookkeeping for one live worker."""

    __slots__ = ("process", "conn", "job", "launched", "kill_started",
                 "dead_since", "certifying")

    def __init__(self, process, conn, job, now):
        self.process = process
        self.conn = conn
        self.job = job
        self.launched = now       # elapsed-time anchor, never cleared
        self.kill_started = now   # hard-deadline clock; None = exempt
        self.dead_since = None
        self.certifying = False   # past the engine-done marker


def _stamp(record, job):
    """Write the job's attempt accounting onto its final record."""
    record.attempts = job.attempts
    if job.lost_time:
        record.stats.setdefault("retry_lost_time",
                                round(job.lost_time, 6))


def _run_pool(jobs, timeout, certify, certificate_budget, num_workers,
              kill_grace, emit, event_sink=None, cancel=None,
              keep_result=False, max_retries=0, retry_backoff=0.25,
              memory_limit_mb=None, worker_id=None):
    """Fan jobs over ``num_workers`` forked processes.

    Each worker reports over its own pipe (no shared queue, so killing
    a hung worker cannot poison anyone else's channel).  The parent
    loop launches, drains, relays worker events to ``event_sink``, and
    enforces the hard per-run deadline.  ``cancel`` aborts at job
    granularity: pending jobs are skipped and running workers
    terminated, all recorded as ``CANCELLED``.

    Killed (hung) and crashed outcomes are transient-fault candidates:
    with ``max_retries > 0`` the job re-queues — after an exponential
    ``retry_backoff * 2**(attempt-1)`` delay — and re-runs with the
    same derived seed, so an eventually-successful retry yields the
    exact record the fault-free campaign would have produced.  Only the
    final outcome is emitted (and persisted), stamped with the total
    ``attempts`` and the wall time burned by failed attempts.  Worker-
    reported records — including the clean UNKNOWN an OOM under
    ``memory_limit_mb`` produces — are final and never retried, and
    carry ``worker_id`` (default: the worker's ``<host>-<pid>``) as
    their ``stats["worker"]["id"]``.
    """
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    pending = deque(jobs)
    delayed = []  # (ready_at, job): retry backoff queue
    running = {}  # job index -> _Slot

    def reap(index):
        slot = running.pop(index)
        slot.conn.close()
        slot.process.join()
        return slot

    def finish(index, record):
        _stamp(record, reap(index).job)
        emit(index, record)

    def settle(index, record):
        """A killed/crashed attempt: re-queue it or make it final."""
        job = reap(index).job
        if job.attempts <= max_retries:
            job.lost_time += record.stats.get("wall_time", 0.0)
            job.attempts += 1
            delay = retry_backoff * (2 ** (job.attempts - 2))
            delayed.append((time.monotonic() + delay, job))
            return
        _stamp(record, job)
        emit(index, record)

    try:
        while pending or delayed or running:
            if cancel is not None and cancel.cancelled:
                for job in list(pending) + [item[1] for item in delayed]:
                    record = _cancelled_record(job)
                    _stamp(record, job)
                    emit(job.index, record)
                pending.clear()
                delayed.clear()
                for index, slot in list(running.items()):
                    if slot.process.is_alive():
                        slot.process.terminate()
                    finish(index, _cancelled_record(slot.job,
                                                    started=True))
                break

            now = time.monotonic()
            if delayed:
                ready = [item for item in delayed if item[0] <= now]
                if ready:
                    delayed[:] = [item for item in delayed
                                  if item[0] > now]
                    for _at, job in sorted(
                            ready, key=lambda item: item[1].index):
                        pending.append(job)
            while pending and len(running) < num_workers:
                job = pending.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main,
                    args=(job, timeout, certify, certificate_budget,
                          child_conn, event_sink is not None,
                          keep_result, memory_limit_mb, worker_id),
                    daemon=True)
                process.start()
                child_conn.close()  # parent keeps only the read end
                running[job.index] = _Slot(process, parent_conn, job,
                                           time.monotonic())

            progressed = False
            now = time.monotonic()
            for index, slot in list(running.items()):
                process, conn, job = slot.process, slot.conn, slot.job
                if conn.poll():
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        # Pipe died before a record arrived: the worker
                        # crashed — mid-engine, or mid-certification
                        # past the engine-done marker.
                        settle(index, _crashed_record(
                            job, process.exitcode,
                            elapsed=now - slot.launched,
                            certifying=slot.certifying))
                        progressed = True
                        continue
                    if message == _ENGINE_DONE:
                        slot.kill_started = None  # certifying: kill off
                        slot.certifying = True
                    elif isinstance(message, tuple) and len(message) == 2 \
                            and message[0] == _EVENT_TAG:
                        if event_sink is not None:
                            event_sink(job.engine_name, job.instance.name,
                                       message[1])
                    else:
                        finish(index, message)
                        continue
                    progressed = True
                # The hard deadline is evaluated even when the pipe had
                # a (non-terminal) message: a runaway engine that keeps
                # streaming events must not shield itself from the kill.
                if timeout is not None and slot.kill_started is not None \
                        and now - slot.kill_started > timeout + kill_grace:
                    process.terminate()
                    process.join()
                    settle(index, _killed_record(job, timeout, kill_grace,
                                                 now - slot.launched))
                    progressed = True
                elif not process.is_alive():
                    # Dead with an empty pipe: give the OS buffer a
                    # moment before declaring the run crashed.  (A
                    # worker that dies *certifying* — after the
                    # engine-done marker exempted it from the kill
                    # timer — is caught here too: certification must
                    # never leave a slot waiting for pool teardown.)
                    if slot.dead_since is None:
                        slot.dead_since = now
                    elif now - slot.dead_since > _DEATH_GRACE:
                        settle(index, _crashed_record(
                            job, process.exitcode,
                            elapsed=now - slot.launched,
                            certifying=slot.certifying))
                        progressed = True
            if not progressed:
                time.sleep(_POLL_INTERVAL)
    finally:
        for slot in running.values():
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join()
            slot.conn.close()


# ----------------------------------------------------------------------
# solution cache
# ----------------------------------------------------------------------
class CampaignCache:
    """The certified solution cache as one campaign uses it.

    Both campaign executors — :func:`run_campaign` and each
    :class:`~repro.portfolio.elastic.ElasticWorker` — go through here:
    :meth:`lookup` consults the cache for an instance, :meth:`hit_record`
    turns a re-certified hit into the job's record, and :meth:`settle`
    stamps a cold record with the lookup's ``stats["cache"]`` miss
    block and stores the first certified decisive result per instance
    back.
    """

    def __init__(self, cache, certificate_budget):
        self.cache = ensure_cache(cache)
        self.certificate_budget = certificate_budget
        self.info = {}       # instance name -> stats["cache"] block
        self.stored = set()  # instance names already stored back

    def lookup(self, instance):
        """The re-certified cached result for ``instance``, or None."""
        hit, self.info[instance.name] = cache_lookup(
            self.cache, instance,
            certificate_budget=self.certificate_budget)
        return hit

    @staticmethod
    def hit_record(engine_name, instance, hit, keep_result=False):
        """The record of a job answered by the re-certified ``hit``."""
        return RunRecord(
            engine_name, instance.name, hit.status,
            hit.stats.get("wall_time", 0.0), reason=hit.reason,
            certified=True, stats=dict(hit.stats),
            result=hit if keep_result else None)

    def settle(self, instance, record):
        """Stamp a finished record's cache block; store a certified
        decisive cold result back (once per instance)."""
        info = self.info.get(instance.name)
        if info is not None:
            record.stats.setdefault("cache", dict(info))
        if record.result is not None and record.certified is not False \
                and instance.name not in self.stored \
                and not record.stats.get("cache", {}).get("hit"):
            if cache_store(self.cache, instance, record.result):
                self.stored.add(instance.name)


# ----------------------------------------------------------------------
# orchestrator
# ----------------------------------------------------------------------
def run_campaign(instances, engines, timeout=None, certify=True,
                 certificate_budget=200_000, jobs=1, seed=None,
                 store=None, resume=False, progress=None,
                 kill_grace=DEFAULT_KILL_GRACE, event_sink=None,
                 cancel=None, keep_results=False, max_retries=0,
                 retry_backoff=0.25, memory_limit_mb=None,
                 solution_cache=None):
    """Run the full (engine × instance) campaign; return a ResultTable.

    ``engines`` entries may be engine *names* (strings) — built fresh
    per job with :func:`derive_job_seed`, which guarantees identical
    results for every ``jobs`` value — or live engine objects, which
    are reused in-process when ``jobs == 1`` and pickled to workers
    otherwise (equivalence then additionally requires the engine to be
    stateless across runs; every engine in this repo re-seeds per
    ``run()``).

    ``store`` (a :class:`~repro.portfolio.store.CampaignStore` or a
    path) persists each record as it completes.  With ``resume=True``,
    pairs already in the store are loaded instead of re-executed —
    ``progress`` fires only for executed runs.

    ``event_sink`` (``(engine_name, instance_name, event) -> None``)
    receives every typed solve event (:mod:`repro.core.events`) of
    every job — directly for ``jobs == 1``, relayed over the worker
    pipes otherwise.  ``cancel`` (a
    :class:`~repro.api.CancellationToken`) aborts the campaign at job
    granularity; ``keep_results=True`` attaches each engine's full
    ``SynthesisResult`` to its record (the ``repro.api`` batch path).

    ``max_retries`` (pool mode only) re-runs a job whose worker was
    killed hung or crashed, up to that many extra attempts, after an
    exponential ``retry_backoff``-seconds delay; ``memory_limit_mb``
    caps each worker's address space so an OOM becomes a clean UNKNOWN
    record instead of a crash (see :func:`_run_pool`).

    ``solution_cache`` (a :class:`~repro.cache.store.SolutionCache` or
    a path) is consulted once per instance *before* any job of that
    instance is scheduled: a re-certified hit becomes the record of
    every engine pair directly (``stats["cache"]["hit"] = True``,
    ``certified=True``) without entering a worker, misses run cold
    exactly as without a cache and have the miss's ``stats["cache"]``
    block stamped onto their records, and the first certified decisive
    cold outcome per instance is stored back.

    The returned table lists records in deterministic
    instance-major/engine-minor order regardless of completion order.
    """
    from repro.portfolio.store import CampaignStore

    if isinstance(store, str):
        store = CampaignStore(store)
    cache = (CampaignCache(solution_cache, certificate_budget)
             if solution_cache is not None else None)

    instances = list(instances)
    specs = []
    for entry in engines:
        if isinstance(entry, str):
            specs.append((entry, None, resolve_engine_spec(entry)))
        else:
            specs.append((entry.name, entry, None))

    done = {}
    if store is not None and resume and store.exists():
        # Records from a campaign run under different knobs are not
        # comparable (e.g. old 1s-timeout TIMEOUTs merged into a 60s
        # campaign would skew every solved count) — refuse loudly.
        meta = store.read_meta() or {}
        for key, wanted in (("timeout", timeout), ("seed", seed),
                            ("certify", certify)):
            if key in meta and meta[key] != wanted:
                raise ReproError(
                    "cannot resume %s: stored %s=%r differs from "
                    "requested %r" % (store.path, key, meta[key], wanted))
        for record in store.iter_records():
            done[(record.engine, record.instance)] = record

    jobs_list = []
    hit_records = []  # (emit key, record) answered without a worker
    slots = []  # (engine_name, instance_name) in canonical table order
    for instance in instances:
        # One cache lookup per instance that still has open jobs; a
        # re-certified hit answers every engine pair of that instance.
        hit = None
        if cache is not None and any((name, instance.name) not in done
                                     for name, _engine, _spec in specs):
            hit = cache.lookup(instance)
        for engine_name, engine, spec in specs:
            pair = (engine_name, instance.name)
            slots.append(pair)
            if pair in done:
                continue
            if hit is not None:
                record = cache.hit_record(engine_name, instance, hit,
                                          keep_result=keep_results)
                hit_records.append((("cache",) + pair,
                                    stamp_worker_identity(record)))
                continue
            job_seed = (spec.job_seed(seed, instance.name)
                        if spec is not None
                        else derive_job_seed(seed, engine_name,
                                             instance.name))
            jobs_list.append(_Job(
                index=len(jobs_list), engine_name=engine_name,
                engine=engine, instance=instance, seed=job_seed))

    executed = {}
    by_name = {instance.name: instance for instance in instances}

    def emit(index, record):
        if cache is not None:
            cache.settle(by_name[record.instance], record)
        executed[index] = record
        # CANCELLED is not an outcome, it is the absence of one: never
        # persist it, so a resumed campaign re-executes exactly the
        # jobs the cancellation skipped.
        if store is not None and record.status != Status.CANCELLED:
            store.append(record)
        if progress is not None:
            progress(record)

    if store is not None:
        store.open(meta={"timeout": timeout, "seed": seed,
                         "certify": certify}, resume=resume)
    # Cold results must reach the parent to be stored back, so a
    # configured cache forces result-keeping on executed jobs (the
    # records returned to a keep_results=False caller simply carry an
    # extra .result attribute).
    keep = keep_results or cache is not None
    try:
        for key, record in hit_records:
            emit(key, record)
        if jobs_list:
            if jobs > 1:
                _run_pool(jobs_list, timeout, certify,
                          certificate_budget, jobs, kill_grace, emit,
                          event_sink=event_sink, cancel=cancel,
                          keep_result=keep,
                          max_retries=max_retries,
                          retry_backoff=retry_backoff,
                          memory_limit_mb=memory_limit_mb)
            else:
                _run_serial(jobs_list, timeout, certify,
                            certificate_budget, emit,
                            event_sink=event_sink, cancel=cancel,
                            keep_result=keep)
    finally:
        if store is not None:
            store.close()

    by_pair = dict(done)
    for record in executed.values():
        by_pair[(record.engine, record.instance)] = record
    table = ResultTable(timeout=timeout)
    for pair in slots:
        record = by_pair.get(pair)
        if record is not None:
            table.add(record)
    return table
