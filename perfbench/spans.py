"""Outside-in span tracing for the traced benchmark run.

The benchmark never edits ``src/``: every span comes from a wrapper the
tracer installs on a public function or method of the program, at the
attribute the program actually calls through.  That matters in three
places:

* ``repro.core.repair`` binds ``solve_maxsat``, ``evaluate_vector_bits``
  and ``refresh_vector_bits`` with from-imports, so those are wrapped at
  ``repro.core.repair``'s attributes, not at their home modules (the
  same holds for the certificate checkers in ``repro.cache.resolve`` and
  ``repro.portfolio.runner``, and the definability entry points in
  ``repro.core.preprocess``);
* pipeline phases live in the ``PHASES`` registry as ``Phase`` objects,
  so phases are timed by wrapping ``Phase.run`` (the one method the
  pipeline calls) rather than the registered functions;
* campaign jobs run in forked workers.  Each worker inherits the
  wrappers, starts from an empty span list (``os.register_at_fork``),
  and ships its per-layer totals back through a file in ``ship_dir``
  once its job's ``evaluate_run`` returns.

A span is ``[name, start, end, parent_index, in_program]``; spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus the durations of its direct children.  Only spans under a
call into the program's public surface (``PROGRAM_ROOTS``) count towards
the layers, and only they update counters: the benchmark's own instance
generation encodes formulas too.
"""

import gzip
import json
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter

#: Counter names reported per layer (absent counters read as 0).
SAT_COUNTERS = ("conflicts", "propagations", "decisions")

#: Top-level span names of calls into the program: the ``repro.api``
#: entry points, and certification in campaign workers.
PROGRAM_ROOTS = ("api.", "portfolio.")


class Tracer:
    """Records spans and counters from wrapped program entry points."""

    def __init__(self, ship_dir=None):
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)
        self.enabled = False
        self.ship_dir = ship_dir
        self._parent_pid = os.getpid()
        self._shipped = []  # per-layer totals read back from workers

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr, name, enter=None, leave=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a string or ``callable(args) -> str``.  ``enter``
        (``args -> state``) runs before the call and ``leave``
        (``tracer, args, result, state``) after it returns.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            label = name(args) if callable(name) else name
            inside = spans[stack[-1]][4] if stack \
                else label.startswith(PROGRAM_ROOTS)
            state = enter(args) if enter is not None and inside else None
            record = [label, perf_counter(), 0.0,
                      stack[-1] if stack else -1, inside]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if leave is not None and inside:
                leave(tracer, args, result, state)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)

    def reset(self):
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def totals(self):
        """``{name: [calls, total_s, self_s]}`` over the spans inside
        program calls."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _name, start, end, parent, _inside in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _parent, inside) in enumerate(spans):
            if not inside:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[index]
        return out

    def program_spans(self):
        """How many spans lie inside program calls."""
        return sum(1 for span in self.spans if span[4])

    def top_level_s(self):
        """Summed duration of the top-level program-call spans."""
        return sum(end - start for _name, start, end, parent, inside
                   in self.spans if parent < 0 and inside)

    def ship(self):
        """In a forked worker: write this job's totals for the parent."""
        if self.ship_dir is None or os.getpid() == self._parent_pid:
            return
        path = os.path.join(self.ship_dir, "worker-%d.json" % os.getpid())
        with open(path, "w") as handle:
            json.dump({"totals": self.totals(),
                       "counters": dict(self.counters),
                       "spans": self.program_spans()}, handle)
        self.reset()

    def collect_shipped(self):
        """In the parent: fold in and delete every worker's totals."""
        if self.ship_dir is None:
            return
        for entry in sorted(os.listdir(self.ship_dir)):
            path = os.path.join(self.ship_dir, entry)
            with open(path) as handle:
                self._shipped.append(json.load(handle))
            os.remove(path)

    def layer_totals(self):
        """Parent spans plus shipped worker totals:
        ``(totals, counters, span_count)``."""
        totals = self.totals()
        counters = defaultdict(float, self.counters)
        count = self.program_spans()
        for shipped in self._shipped:
            for name, (calls, total, own) in shipped["totals"].items():
                row = totals.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
            for key, value in shipped["counters"].items():
                counters[key] += value
            count += shipped["spans"]
        return totals, counters, count

    def write(self, path):
        """Dump the parent's spans: ``{"names": [...], "spans":
        [[name_index, start_s, end_s, parent_index], ...]}``, gzipped."""
        names = {}
        rows = []
        for name, start, end, parent, _inside in self.spans:
            index = names.setdefault(name, len(names))
            rows.append([index, round(start, 7), round(end, 7), parent])
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump({"format": "perfbench-spans-1",
                       "names": sorted(names, key=names.get),
                       "spans": rows}, handle, separators=(",", ":"))

    def per_span_cost(self, calls=20000):
        """Calibrated seconds one recorded span adds to a call."""

        class _Probe:
            def call(self):
                return None

        probe = _Probe()
        started = perf_counter()
        for _ in range(calls):
            probe.call()
        plain = perf_counter() - started
        self.wrap(_Probe, "call", "calibrate")
        saved, self.spans, self.stack = self.spans, [], []
        enabled, self.enabled = self.enabled, True
        started = perf_counter()
        for _ in range(calls):
            probe.call()
        wrapped = perf_counter() - started
        self.enabled = enabled
        self.spans = saved
        return max(wrapped - plain, 0.0) / calls


# ----------------------------------------------------------------------
# the program's layers
# ----------------------------------------------------------------------
def _sat_enter(args):
    return args[0].stats()


def _sat_leave(tracer, args, result, before):
    after = args[0].stats()
    for key in SAT_COUNTERS:
        tracer.counters["sat." + key] += after[key] - before[key]


def _tseitin_enter(args):
    encoder = args[0]
    return encoder.hits, encoder.misses


def _tseitin_leave(tracer, args, result, before):
    encoder = args[0]
    tracer.counters["formula.tseitin.encode_hits"] += \
        encoder.hits - before[0]
    tracer.counters["formula.tseitin.encode_misses"] += \
        encoder.misses - before[1]


def _certify_leave(tracer, args, result, state):
    if not result.valid:
        tracer.counters["dqbf.certify.failed"] += 1


def _lookup_leave(tracer, args, result, state):
    hit = result[0] is not None
    tracer.counters["cache.hits" if hit else "cache.misses"] += 1
    if result[1].get("evicted"):
        tracer.counters["cache.evictions"] += 1


def _ship_leave(tracer, args, result, state):
    tracer.ship()


def install(tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.api import solver as api_solver
    from repro.baselines.expansion import ExpansionSynthesizer
    from repro.cache import resolve
    from repro.cache.store import SolutionCache
    from repro.core import pipeline, preprocess, repair
    from repro.formula.tseitin import TseitinEncoder
    from repro.learning.decision_tree import DecisionTree
    from repro.portfolio import parallel, runner
    from repro.sampling.sampler import Sampler
    from repro.sat.solver import Solver as SatSolver

    wrap = tracer.wrap
    wrap(api_solver.Solver, "solve", "api.solve")
    wrap(api_solver, "solve_batch", "api.solve_batch")
    wrap(pipeline.Phase, "run", lambda args: "core.phase." + args[0].name)
    wrap(SatSolver, "solve", "sat.solve", _sat_enter, _sat_leave)
    wrap(SatSolver, "add_clause", "sat.add_clause")
    wrap(TseitinEncoder, "encode", "formula.tseitin",
         _tseitin_enter, _tseitin_leave)
    wrap(repair, "evaluate_vector_bits", "formula.bitvec")
    wrap(repair, "refresh_vector_bits", "formula.bitvec")
    wrap(repair, "solve_maxsat", "maxsat")
    wrap(Sampler, "draw", "sampling.draw")
    wrap(DecisionTree, "fit_bitset", "learning.fit")
    wrap(DecisionTree, "fit", "learning.fit")
    for attr in ("find_gate_definitions", "is_uniquely_defined",
                 "extract_definition"):
        wrap(preprocess, attr, "definability")
    for module, attrs in ((resolve, ("check_henkin_vector_incremental",
                                     "check_false_witness")),
                          (runner, ("check_henkin_vector",
                                    "check_false_witness"))):
        for attr in attrs:
            wrap(module, attr, "dqbf.certify", leave=_certify_leave)
    wrap(api_solver, "cache_lookup", "cache.lookup", leave=_lookup_leave)
    wrap(resolve, "fingerprint_instance", "cache.fingerprint")
    wrap(SolutionCache, "get", "cache.get")
    wrap(SolutionCache, "put", "cache.put")
    wrap(ExpansionSynthesizer, "run", "baselines.expansion")
    wrap(parallel, "evaluate_run", "portfolio.evaluate_run",
         leave=_ship_leave)
    os.register_at_fork(after_in_child=tracer.reset)
