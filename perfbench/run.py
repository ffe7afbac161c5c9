"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload planted-hard --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
program's layer boundaries (see ``spans.py``) and reports the per-layer
metrics instead.  The report goes to standard output; its last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero on any correctness failure.  Run records, the
traced spans and the previous run's verdicts are kept in
``perfbench/out/``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` reports their median.  Each set-up is
#: a fresh interpreter importing the benchmark's modules, then the
#: workload's own set-up.
SETUP_REPEATS = 5

#: End-to-end metric -> unit, in the report's order.
END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_s.gmean": "s",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics read from span totals, per completed unit of work:
#: name -> (span, field) with field 0 = calls, 1 = total s, 2 = self s.
SPAN_METRICS = {
    "api.solve.self_s": ("api.solve", 2),
    "sat.solve.calls": ("sat.solve", 0),
    "sat.solve.self_s": ("sat.solve", 2),
    "sat.add_clause.calls": ("sat.add_clause", 0),
    "sat.add_clause.s": ("sat.add_clause", 1),
    "formula.tseitin.self_s": ("formula.tseitin", 2),
    "formula.bitvec.calls": ("formula.bitvec", 0),
    "formula.bitvec.s": ("formula.bitvec", 1),
    "maxsat.calls": ("maxsat", 0),
    "maxsat.self_s": ("maxsat", 2),
    "core.phase.sample.s": ("core.phase.sample", 1),
    "core.phase.preprocess.s": ("core.phase.preprocess", 1),
    "core.phase.learn.s": ("core.phase.learn", 1),
    "core.phase.order.s": ("core.phase.order", 1),
    "core.phase.verify_repair.s": ("core.phase.verify_repair", 1),
    "sampling.draw.s": ("sampling.draw", 1),
    "learning.fit.s": ("learning.fit", 1),
    "definability.s": ("definability", 1),
    "dqbf.certify.calls": ("dqbf.certify", 0),
    "dqbf.certify.s": ("dqbf.certify", 1),
    "cache.fingerprint.s": ("cache.fingerprint", 1),
    "cache.get.s": ("cache.get", 1),
    "cache.put.s": ("cache.put", 1),
    "baselines.expansion.s": ("baselines.expansion", 1),
}

#: Per-layer counters, per completed unit of work.
COUNTER_METRICS = (
    "sat.conflicts", "sat.propagations", "sat.decisions",
    "formula.tseitin.encode_hits", "formula.tseitin.encode_misses",
    "dqbf.certify.failed", "cache.hits", "cache.misses",
    "cache.evictions",
)

#: Counts the workloads read from the program's own result stats.
RESULT_COUNTS = ("core.repair_iterations", "sampling.samples")


def layer_unit(name):
    """Per-layer metrics are per completed unit of work ("op")."""
    if name == "benchgen.s":
        return "s"
    if name == "portfolio.jobs":
        return "count"
    if name.endswith(("_ratio", "utilization")):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s/op"
    return "count/op"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def percentile(samples, p):
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def tail_percentile(samples):
    """The highest of p90/p99 with at least ten samples beyond it."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return p
    return None


def ref_latencies(samples, speed):
    """``(seconds, start, end, worker)`` samples in reference seconds."""
    return [speed.normalize(start, end) if seconds is None
            else seconds * speed.factor(start, end, worker)
            for seconds, start, end, worker in samples]


def ref_calls(m, speed):
    """Each program call's time in reference seconds.  A call whose jobs
    ran in forked workers is scaled by the jobs' own factors, weighted
    by job time, because its wall time is mostly its long jobs'."""
    jobs = defaultdict(list)
    for seconds, start, end, worker in m.latencies:
        if worker is not None:
            jobs[start, end].append(
                (seconds, speed.factor(start, end, worker)))
    times = []
    for start, end in m.calls:
        done = jobs.get((start, end))
        if done:
            times.append((end - start) * sum(s * f for s, f in done)
                         / sum(s for s, _ in done))
        else:
            times.append(speed.normalize(start, end))
    return times


def end_to_end(m, speed, setup_s):
    busy = sum(ref_calls(m, speed))
    latencies = ref_latencies(m.latencies, speed)
    return {
        "setup_s": setup_s,
        "throughput": m.units / busy if busy > 0 else 0.0,
        "latency_s.gmean": statistics.geometric_mean(latencies)
        if latencies else 0.0,
        "solved_frac": m.solved / m.attempted if m.attempted else 0.0,
        "peak_rss_mb": m.rss_mb,
    }


def per_layer(tracer, m, speed, workload, benchgen_s, span_cost):
    """Per-layer metrics per completed unit of work.  Times are scaled
    to reference seconds by the window's mean host-speed factor."""
    totals, counters, spans = tracer.layer_totals()
    units = max(m.units, 1)
    wall = sum(end - start for start, end in m.calls)
    ref_wall = sum(ref_calls(m, speed))
    scale = ref_wall / wall if wall > 0 else 1.0
    metrics = {}
    for name, (span, field) in SPAN_METRICS.items():
        value = totals.get(span, [0, 0.0, 0.0])[field]
        metrics[name] = value * (scale if field else 1) / units
    for name in COUNTER_METRICS:
        metrics[name] = counters.get(name, 0.0) / units
    for name in RESULT_COUNTS:
        metrics[name] = m.counts.get(name, 0.0) / units
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    metrics["cache.hit_ratio"] = \
        counters.get("cache.hits", 0) / lookups if lookups else 0.0
    campaign = workload == "suite-campaign"
    slot_s = wall * m.workers
    busy = m.counts.get("portfolio.busy_s", 0.0)
    metrics.update({
        "portfolio.jobs": m.units if campaign else 0,
        "portfolio.busy_s": busy * scale / units,
        "portfolio.utilization": busy / slot_s if campaign and slot_s else 0.0,
        "portfolio.overhead_s":
            (slot_s - busy) * scale / units if campaign else 0.0,
        "portfolio.retries": m.counts.get("portfolio.retries", 0) / units,
        "portfolio.killed": m.counts.get("portfolio.killed", 0) / units,
        "benchgen.s": benchgen_s,
        "trace.wall_s": ref_wall / units,
        "trace.spans": spans / units,
        "trace.overhead_s": spans * span_cost * scale / units,
        "trace.unattributed_s":
            (wall - tracer.top_level_s()) * scale / units,
    })
    return metrics


def verdict_digest(triples):
    """Digest of the distinct (engine, instance, status) triples, and
    each (engine, instance)'s set of statuses."""
    distinct = sorted(set(triples))
    digest = hashlib.sha256(
        json.dumps(distinct).encode()).hexdigest()[:16]
    statuses = {}
    for engine, instance, status in distinct:
        statuses.setdefault("%s|%s" % (engine, instance), []).append(status)
    return digest, statuses


def flips_since_last(path, statuses):
    """Instances whose statuses differ from the previous run's."""
    try:
        with open(path) as handle:
            previous = json.load(handle)["statuses"]
    except (OSError, ValueError, KeyError):
        return None
    return sorted(key for key in statuses.keys() & previous.keys()
                  if statuses[key] != previous[key])


def report(args, info, metrics, units, samples, m, digest, flips):
    lines = ["# perfbench workload=%s seed=%d seconds=%g trace=%d"
             % (args.workload, args.seed, args.seconds, args.trace),
             "# machine nproc=%(nproc)d cpu=%(cpu)r python=%(python)s "
             "loadavg=%(loadavg)s" % info]
    for name, value in metrics.items():
        count = samples.get(name)
        lines.append("%-16s %-30s %14.6g %-6s%s" % (
            args.workload, name, value, units.get(name, ""),
            "  n=%d" % count if count is not None else ""))
    for name, count in (("failed", len(m.failures)), ("lost", len(m.lost))):
        lines.append("%-16s %-30s %14d %-6s" % (args.workload, name, count,
                                                "count"))
    lines.append("# verdicts digest=%s triples=%d flips_since_last_run=%s"
                 % (digest, len(set(m.triples)),
                    "n/a" if flips is None else len(flips)))
    for key in flips or ():
        lines.append("#   flipped %s" % key)
    for lost in m.lost:
        lines.append("# LOST %s" % lost)
    for failure in m.failures:
        lines.append("# FAILED %s" % failure)
    print("\n".join(lines))


def timed_import():
    """Start a fresh interpreter that imports what the benchmark imports;
    returns its ``(start, end)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [HERE, os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import spans, workloads"],
                   env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return started, time.perf_counter()


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "benchmarks",
                                            "bench_solution_cache.py"))):
        print("perfbench: run from a checkout of the repository "
              "(src/repro and benchmarks/ are missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from hostspeed import HostSpeed
    from spans import Tracer, install
    from workloads import WORKLOADS, peak_rss_mb

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    speed = HostSpeed()
    speed.start()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        imports, setups, benchgen = [], [], []
        for _ in range(SETUP_REPEATS):
            imports.append(timed_import())
            started = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setups.append((started, time.perf_counter()))
            benchgen.append(state["benchgen_s"])
        gc.collect()

        tracer = None
        if args.trace:
            ship_dir = os.path.join(workdir, "ship")
            os.makedirs(ship_dir)
            tracer = Tracer(ship_dir)
            span_cost = tracer.per_span_cost()
            install(tracer)
            tracer.enabled = True
        if workload.forks:
            probe_dir = os.path.join(workdir, "probes")
            os.makedirs(probe_dir)
            speed.follow_forks(probe_dir)
        m = workload.run(state, args.seed, args.seconds)
        m.first_round_done()  # a window too short for a full round
        if workload.forks:
            speed.collect_forks()
        speed.stop()
        if tracer is not None:
            tracer.enabled = False
            tracer.collect_shipped()
        workload.check(state, m)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(
        speed.normalize(*imported) + speed.normalize(*setup)
        for imported, setup in zip(imports, setups))
    raw_setup_s = statistics.median(
        imported[1] - imported[0] + setup[1] - setup[0]
        for imported, setup in zip(imports, setups))
    benchgen_s = statistics.median(benchgen) * speed.factor(*setups[-1])

    info = machine()
    latencies = ref_latencies(m.latencies, speed)
    samples = {"setup_s": SETUP_REPEATS, "latency_s.gmean": len(latencies),
               "throughput": m.units}
    if args.trace:
        metrics = per_layer(tracer, m, speed, args.workload, benchgen_s,
                            span_cost)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(m, speed, setup_s)
        units = dict(END_TO_END)
    shown = dict(metrics)
    shown["wall_s"] = sum(ref_calls(m, speed))
    units["wall_s"] = "s"
    samples["wall_s"] = len(m.calls)
    for p in (50, tail_percentile(latencies)):
        if p:
            name = "latency_s.p%d" % p
            shown[name] = percentile(latencies, p)
            units[name], samples[name] = "s", len(latencies)
    for key, values in sorted(m.timings.items()):
        values = ref_latencies(values, speed)
        for p in (50, 90):
            name = "%s.p%d" % (key, p)
            shown[name] = percentile(values, p)
            units[name], samples[name] = "s", len(values)
    shown["failed_frac"] = len(m.failures) / max(m.attempted, 1)
    units["failed_frac"] = "ratio"
    raw_walls = [end - start for start, end in m.calls]
    raw_latencies = [end - start if seconds is None else seconds
                     for seconds, start, end, _ in m.latencies]
    shown.update({
        "rss_end_mb": peak_rss_mb(),
        "raw.setup_s": raw_setup_s,
        "raw.wall_s": sum(raw_walls),
        "raw.latency_s.gmean": statistics.geometric_mean(raw_latencies)
        if raw_latencies else 0.0,
        "host.probe_s.p50": statistics.median(speed.times),
    })
    units.update({"rss_end_mb": "MB", "raw.setup_s": "s", "raw.wall_s": "s",
                  "raw.latency_s.gmean": "s", "host.probe_s.p50": "s"})
    samples["host.probe_s.p50"] = len(speed.times)

    digest, statuses = verdict_digest(m.triples)
    verdicts_path = os.path.join(OUT, "verdicts-%s-seed%d.json"
                                 % (args.workload, args.seed))
    flips = flips_since_last(verdicts_path, statuses)
    with open(verdicts_path, "w") as handle:
        json.dump({"digest": digest, "statuses": statuses}, handle,
                  indent=0, sort_keys=True)
    report(args, info, shown, units, samples, m, digest, flips)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": info, "metrics": shown, "samples": samples,
              "digest": digest, "flips": flips, "failures": m.failures,
              "lost": m.lost}
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(os.path.join(OUT, "trace-%s-seed%d.json.gz"
                                  % (args.workload, args.seed)))

    correct = not m.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(m.attempted, 1),
        "failed": len(m.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
