"""The three benchmark workloads, each driven through ``repro.api``.

Every workload has the same shape: ``setup(seed, workdir)`` builds the
inputs (and, for ``resubmit-cache``, the warm on-disk cache) and
returns a state object; ``run(state, seed, seconds)`` is the timed
window and returns a :class:`Measurement`; ``check(state, measurement)``
runs outside the window and appends every correctness failure.
``forks`` says whether the program runs in forked workers, whose
host speed the benchmark then samples inside them (see ``hostspeed.py``).

Why these inputs:

* ``planted-hard`` is the CDCL-bound cold solve: neither the portfolio
  nor the cache is on its path.
* ``suite-campaign`` is the paper's section-6 campaign shape: most jobs
  are short, so per-job fork, IPC and certification cost in the
  portfolio is a large share, and a few multi-second repair loops set
  the tail.  ``pedant`` is left out: several of its jobs run to any
  practical limit, so the wall time would measure the limit.
* ``resubmit-cache`` is the only workload with repeated input (about
  90% of submissions are renamings of stored instances), so the cache
  layer does almost all of its work and none of the others'.

The seed is the solver seed on ``planted-hard`` and drives the
resubmission stream on ``resubmit-cache``.  The instance pools of
``planted-hard`` and ``suite-campaign`` do not depend on it, and
``suite-campaign`` does not use it at all: one campaign took 18-30 s
over small-suite seeds 0-4, and 22-43 s over campaign seeds 0-9 on
the same suite, because a few multi-second repair loops set its wall
time.  A seed-dependent campaign would bury a 25% bound in input noise.
"""

import os
import random
import resource
import statistics
import tempfile
import time
from collections import defaultdict

from benchmarks.bench_solution_cache import SHAPE, _permuted_copy
from repro.api import Solver, Status
from repro.api import solver as api_solver
from repro.benchgen import build_suite, generate_planted_instance
from repro.benchgen.pec import generate_pec_instance
from repro.cache import SolutionCache
from repro.dqbf.certificates import check_false_witness, check_henkin_vector

perf_counter = time.perf_counter

DECISIVE = (Status.SYNTHESIZED, Status.FALSE)

#: Hard planted instances: the pair ``bench_solution_cache.py`` solves
#: by default (its seeds 0 and 1 map to generator seeds 200 and 201).
PLANTED_SEEDS = (200, 201)

#: The small suite's seed: the repo's Table-1 default.
SUITE_SEED = 0
CAMPAIGN_ENGINES = ("manthan3", "expansion")
#: Far above the slowest job (about 11 s), so no verdict depends on it.
CAMPAIGN_TIMEOUT = 120.0

#: Share of the resubmission stream that is never-seen instances.
MISS_SHARE = 0.1
#: Submissions in the first round of ``resubmit-cache``: the fixed
#: amount of work after which peak memory is read (see
#: :meth:`Measurement.first_round_done`).
FIRST_ROUND_SUBMISSIONS = 1000
#: Cheap families the misses come from: random PEC circuits, mostly
#: decisive for manthan3 in 0.01-0.2 s.  (The 3-bit comparator and
#: adder generators have too few distinct instances up to renaming: they
#: would hit.)
MISS_FAMILIES = (
    lambda s: generate_pec_instance(num_inputs=5, num_outputs=2,
                                    num_boxes=1, depth=2, realizable=True,
                                    seed=s),
    lambda s: generate_pec_instance(num_inputs=6, num_outputs=3,
                                    num_boxes=2, depth=3,
                                    extra_observables=1, realizable=True,
                                    seed=s),
)


class Measurement:
    """What one timed window observed.

    Times are kept raw, with the interval they were taken in, so that
    they can be normalized by the host speed during that interval.
    """

    def __init__(self):
        self.calls = []            # (start, end) of each program call
        self.units = 0             # solves, jobs or submissions done
        # (seconds, start, end, worker) per unit; seconds is None when
        # the latency is the whole interval, and worker is the pid of
        # the forked worker that measured it, or None
        self.latencies = []
        self.attempted = 0
        self.solved = 0            # certified decisive verdicts
        self.failures = []         # one line per failed operation
        self.triples = []          # (engine, instance, status)
        self.counts = defaultdict(float)    # counts read from results
        self.timings = {}          # name -> [(seconds, start, end)]
        self.workers = 1           # processes the program ran on
        self.pending = []          # (instance, result) to certify
        self.lost = []             # verdicts the program failed to return
        self.rss_mb = None         # peak RSS after the first round

    def first_round_done(self):
        """Read peak memory after a fixed amount of work.  The program
        keeps every Boolean expression it ever built (the ``BoolExpr``
        intern table), so its memory grows with the work done, and a
        window that does more work would read as more memory."""
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb()

    def called(self, start):
        """Record a program call that began at ``start``; returns its
        ``(start, end)``."""
        interval = (start, perf_counter())
        self.calls.append(interval)
        return interval


def peak_rss_mb():
    """The larger of this process's and its children's peak RSS."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) \
        / 1024.0


def known_truth(name):
    """The truth value an instance has by construction, if any:
    planted instances are True, and (adder-)PEC names say whether the
    generator made them realizable."""
    if name.startswith("planted"):
        return True
    if name.startswith(("pec_", "adder_")):
        if "_unsat_" in name:
            return False
        if "_sat_" in name:
            return True
    return None


def contradicts(name, status):
    truth = known_truth(name)
    return (truth is True and status == Status.FALSE) or \
        (truth is False and status == Status.SYNTHESIZED)


def certify_pending(measurement):
    """Certify every decisive verdict the window left for checking."""
    for instance, result in measurement.pending:
        if result.status == Status.SYNTHESIZED:
            valid = check_henkin_vector(instance, result.functions).valid
        elif result.witness is not None:
            valid = check_false_witness(instance, result.witness).valid
        else:
            valid = None
        if valid is False:
            measurement.failures.append(
                "%s: %s verdict failed certification"
                % (instance.name, result.status))
        elif valid and result.status in DECISIVE:
            measurement.solved += 1
    measurement.pending = []


def _more(started, rounds, seconds):
    """Start another round only if a typical one still fits."""
    if not rounds:
        return True
    typical = statistics.median(end - start for start, end in rounds)
    return perf_counter() - started + typical <= seconds


def _add_stats(measurement, stats):
    measurement.counts["core.repair_iterations"] += \
        stats.get("repair_iterations", 0)
    measurement.counts["sampling.samples"] += stats.get("samples", 0)


# ----------------------------------------------------------------------
# planted-hard: closed loop, one caller, in process, no cache
# ----------------------------------------------------------------------
class PlantedHard:
    name = "planted-hard"
    forks = False

    def setup(self, seed, workdir):
        started = perf_counter()
        instances = [generate_planted_instance(seed=s, **SHAPE)
                     for s in PLANTED_SEEDS]
        return {"instances": instances,
                "benchgen_s": perf_counter() - started}

    def run(self, state, seed, seconds):
        m = Measurement()
        rounds = []
        started = perf_counter()
        while _more(started, rounds, seconds):
            round_started = perf_counter()
            for instance in state["instances"]:
                m.attempted += 1
                call_started = perf_counter()
                try:
                    solution = Solver("manthan3", seed=seed).solve(instance)
                except Exception as exc:  # a crash is a failed solve
                    m.called(call_started)
                    m.failures.append("%s: %r" % (instance.name, exc))
                    continue
                start, end = m.called(call_started)
                m.latencies.append((None, start, end, None))
                m.units += 1
                m.triples.append(("manthan3", instance.name,
                                  solution.status))
                _add_stats(m, solution.stats)
                if solution.status == Status.FALSE:
                    m.failures.append("%s: FALSE on a planted (True) "
                                      "instance" % instance.name)
                elif solution.status in DECISIVE:
                    m.pending.append((instance, solution.result))
            rounds.append((round_started, perf_counter()))
            m.first_round_done()
        return m

    def check(self, state, m):
        certify_pending(m)


# ----------------------------------------------------------------------
# suite-campaign: one small-suite campaign per round over the pool
# ----------------------------------------------------------------------
#: A worker whose finished result cannot be pickled back (deep
#: expression trees in ``partial_functions`` exceed the recursion limit)
#: reports UNKNOWN with this reason.  No wrong verdict comes of it, so
#: it is not a failure, but the verdict is lost: it lowers
#: ``solved_frac`` and every run lists it.
LOST_REASON = "worker result not serializable"


def _record_failure(record):
    stats = record.stats or {}
    if record.status == Status.INVALID:
        return "certification failed"
    if stats.get("killed"):
        return "worker killed"
    if stats.get("crashed"):
        return "worker crashed"
    if stats.get("oom"):
        return "worker out of memory"
    if (record.reason or "").startswith("worker error"):
        return record.reason  # the engine raised
    if contradicts(record.instance, record.status):
        return "%s contradicts the instance's known truth" % record.status
    return None


def _worker_pid(record):
    """The pid in the record's worker id (``<host>-<pid>``), or None."""
    worker = (record.stats or {}).get("worker") or {}
    pid = str(worker.get("id", "")).rpartition("-")[2]
    return int(pid) if pid.isdigit() else None


class SuiteCampaign:
    name = "suite-campaign"
    forks = True

    def setup(self, seed, workdir):
        """The small suite, widest instances first.  The pool takes jobs
        in submission order, and the multi-second jobs are all on wide
        instances: submitted last, one of them alone would set the
        campaign's tail."""
        started = perf_counter()
        suite = build_suite("small", SUITE_SEED)
        suite.sort(key=lambda instance: -len(instance.universals))
        return {"suite": suite, "benchgen_s": perf_counter() - started}

    def run(self, state, seed, seconds):
        m = Measurement()
        m.workers = len(os.sched_getaffinity(0))
        started = perf_counter()
        while _more(started, m.calls, seconds):
            expected = len(state["suite"]) * len(CAMPAIGN_ENGINES)
            m.attempted += expected
            call_started = perf_counter()
            try:
                batch = api_solver.solve_batch(
                    state["suite"], list(CAMPAIGN_ENGINES),
                    timeout=CAMPAIGN_TIMEOUT, jobs=m.workers, certify=True)
            except Exception as exc:
                m.called(call_started)
                m.failures.append("campaign: %r" % (exc,))
                continue
            interval = m.called(call_started)
            records = batch.table.records
            if len(records) != expected:
                m.failures.append("campaign returned %d of %d records"
                                  % (len(records), expected))
            self._tally(m, records, interval)
            m.first_round_done()
        return m

    @staticmethod
    def _tally(m, records, interval):
        verdicts = defaultdict(set)
        for record in records:
            m.units += 1
            if record.time > 0:  # 0.0: the worker's timing was lost
                m.latencies.append((record.time,) + interval
                                   + (_worker_pid(record),))
            m.triples.append((record.engine, record.instance,
                              record.status))
            stats = record.stats or {}
            _add_stats(m, stats)
            m.counts["portfolio.retries"] += \
                max((record.attempts or 1) - 1, 0)
            m.counts["portfolio.killed"] += 1 if stats.get("killed") else 0
            m.counts["portfolio.busy_s"] += record.time
            if record.reason == LOST_REASON:
                m.lost.append("%s on %s: %s" % (
                    record.engine, record.instance, record.reason))
            failure = _record_failure(record)
            if failure:
                m.failures.append("%s on %s: %s" % (
                    record.engine, record.instance, failure))
            elif record.status in DECISIVE and record.certified:
                m.solved += 1
                verdicts[record.instance].add(record.status)
        for instance, statuses in sorted(verdicts.items()):
            if len(statuses) > 1:
                m.failures.append("%s: engines disagree (%s)" % (
                    instance, ", ".join(sorted(statuses))))

    def check(self, state, m):
        pass  # the campaign certified every claim in its workers


# ----------------------------------------------------------------------
# resubmit-cache: renamed resubmissions against a warm on-disk cache
# ----------------------------------------------------------------------
class ResubmitCache:
    name = "resubmit-cache"
    forks = False

    def setup(self, seed, workdir):
        """Fill an on-disk cache: expansion's decisive small-suite
        results, plus manthan3 on the planted slice, which expansion
        leaves open (its blow-up guard trips on every planted instance,
        after up to 1.4 s, so expansion is not run there).  Stored
        instances sit on both sides of |X| = 20."""
        started = perf_counter()
        suite = build_suite("small", SUITE_SEED)
        benchgen_s = perf_counter() - started
        path = os.path.join(tempfile.mkdtemp(prefix="cache-", dir=workdir),
                            "cache.jsonl")
        cache = SolutionCache(path)
        expansion = Solver("expansion", cache=cache)
        manthan3 = Solver("manthan3", seed=SUITE_SEED, cache=cache)
        stored = {}
        for instance in suite:
            entries = len(cache)
            solver = manthan3 if instance.name.startswith("planted") \
                else expansion
            solution = solver.solve(instance)
            if len(cache) > entries:  # decisive and certificate-bearing
                stored[instance.name] = (instance, solution.status)
        return {"path": path, "stored": stored, "benchgen_s": benchgen_s}

    def run(self, state, seed, seconds):
        m = Measurement()
        cache = SolutionCache(state["path"])  # tier 2 read from disk
        solver = Solver("manthan3", seed=seed, cache=cache)
        rng = random.Random(seed)
        bases = sorted(state["stored"])
        hit_s, miss_s = [], []
        fresh = 0
        started = perf_counter()
        while perf_counter() - started < seconds:
            if rng.random() < MISS_SHARE:
                family = MISS_FAMILIES[fresh % len(MISS_FAMILIES)]
                instance = family(1_000_000 + seed * 100_000 + fresh)
                fresh += 1
                expected = None
            else:
                base, expected = state["stored"][rng.choice(bases)]
                instance = _permuted_copy(base, rng.getrandbits(31))
            m.attempted += 1
            call_started = perf_counter()
            try:
                solution = solver.solve(instance)
            except Exception as exc:
                m.called(call_started)
                m.failures.append("%s: %r" % (instance.name, exc))
                continue
            start, end = m.called(call_started)
            sample = (None, start, end, None)
            m.latencies.append(sample)
            m.units += 1
            if m.units == FIRST_ROUND_SUBMISSIONS:
                m.first_round_done()
            status = solution.status
            m.triples.append(("manthan3", instance.name, status))
            hit = bool((solution.stats.get("cache") or {}).get("hit"))
            (hit_s if hit else miss_s).append(sample)
            if hit:
                m.solved += 1  # re-certified by the cache before return
            else:
                _add_stats(m, solution.stats)
                if status in DECISIVE:
                    m.pending.append((instance, solution.result))
            if expected is not None and status in DECISIVE \
                    and status != expected:
                m.failures.append("%s: %s, but the stored verdict is %s"
                                  % (instance.name, status, expected))
            elif contradicts(instance.name, status):
                m.failures.append("%s: %s contradicts the instance's "
                                  "known truth" % (instance.name, status))
        m.timings["hit_s"] = hit_s
        m.timings["miss_s"] = miss_s
        return m

    def check(self, state, m):
        certify_pending(m)


WORKLOADS = {w.name: w for w in (PlantedHard(), SuiteCampaign(),
                                 ResubmitCache())}
