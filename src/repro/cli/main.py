"""Argparse front-end, built entirely on the :mod:`repro.api` façade.

Every command goes through the public surface: instances load through
:class:`~repro.api.Problem` (content-based format detection), engines
run through :class:`~repro.api.Solver` handles, campaigns through
:func:`repro.api.solve_batch`, and progress rendering subscribes to the
typed event stream instead of poking engine internals.
"""

import argparse
import sys

from repro.api import Problem, Solver, Status, engine_names, solve_batch
from repro.sat.backend import backend_names
from repro.utils.errors import ReproError


def _solution_cache(args):
    """The ``--solution-cache`` path, unless ``--no-cache`` wins."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "solution_cache", None)


def _make_solver(name, seed=None, sat_backend=None, cache=None):
    overrides = None
    if sat_backend:
        from repro.sat.backend import backend_available

        if sat_backend.partition(":")[0] not in backend_names():
            raise SystemExit(
                "unknown SAT backend %r (choose from %s, optionally "
                "with a ':variant' suffix)"
                % (sat_backend, ", ".join(backend_names())))
        if not backend_available(sat_backend):
            raise SystemExit(
                "SAT backend %r is not installed in this environment "
                "(the 'pysat' backends need the python-sat package)"
                % sat_backend)
        overrides = {"sat_backend": sat_backend}
    try:
        return Solver(name, seed=seed, overrides=overrides, cache=cache)
    except ReproError as exc:
        raise SystemExit(str(exc))


def _parse_engine_names(spec):
    from repro.portfolio.parallel import resolve_engine_spec

    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise SystemExit("no engines selected")
    for name in names:
        try:
            resolve_engine_spec(name)  # registry names + race: groups
        except ReproError as exc:
            raise SystemExit(str(exc))
    return names


def _is_pipeline_engine(name):
    """Whether ``--sat-backend`` applies to this engine (baselines in a
    mixed ``--engines`` list keep their own oracles)."""
    from repro.portfolio.parallel import ENGINE_SPECS, PipelineEngineSpec

    return isinstance(ENGINE_SPECS.get(name), PipelineEngineSpec)


def _load_problem(path, fmt):
    try:
        return Problem.from_file(path, fmt=fmt)
    except OSError as exc:
        raise SystemExit(str(exc))
    except ReproError as exc:
        raise SystemExit("cannot load %s: %s" % (path, exc))


def _phase_progress(event):
    """Event listener rendering pipeline progress on stderr."""
    if event.kind == "phase_started":
        print("  phase %-14s ..." % event.phase, file=sys.stderr)
    elif event.kind == "phase_finished":
        print("  phase %-14s %8.3f s%s"
              % (event.phase, event.elapsed,
                 "  [truncated]" if event.truncated else ""),
              file=sys.stderr)
    elif event.kind == "counterexample_found":
        print("  cex #%d" % (event.iteration + 1), file=sys.stderr)
    elif event.kind == "partial_available":
        print("  partial vector: %d functions (%d verified)"
              % (event.functions, event.verified), file=sys.stderr)


def cmd_synth(args):
    problem = _load_problem(args.file, args.format)
    solver = _make_solver(args.engine, args.seed,
                          sat_backend=args.sat_backend,
                          cache=_solution_cache(args))
    if args.verbose:
        solver.subscribe(_phase_progress)
    solution = solver.solve(problem, timeout=args.timeout)
    cache_info = solution.stats.get("cache") or {}
    print("verdict: %s  (%.3f s)%s"
          % (solution.status, solution.stats.get("wall_time", 0.0),
             "  [cache hit]" if cache_info.get("hit") else ""),
          file=sys.stderr)
    if solution.reason:
        print("reason: %s" % solution.reason, file=sys.stderr)

    if solution.status == Status.FALSE:
        if solution.witness is not None:
            # A cache hit arrives already re-certified against this
            # very instance; anything else is checked here.
            valid = solution.certified or solution.certify().valid
            print("falsity witness check: %s"
                  % ("VALID" if valid else "INVALID"),
                  file=sys.stderr)
        return 20
    if solution.status != Status.SYNTHESIZED:
        return 30

    if solution.certified:
        valid, why = True, ""
    else:
        cert = solution.certify()
        valid, why = cert.valid, cert.reason
    print("certificate: %s" % ("VALID" if valid
                               else "INVALID (%s)" % why),
          file=sys.stderr)
    if not valid:
        return 1

    if args.output_format == "infix":
        text = "".join("y%d = %s\n" % (y, solution.functions[y].to_infix())
                       for y in problem.existentials)
    elif args.output_format == "aiger":
        text = solution.to_aiger()
    else:
        text = solution.to_verilog()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("wrote %s" % args.output, file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 10


def cmd_info(args):
    problem = _load_problem(args.file, args.format)
    stats = problem.stats()
    print("%-14s %s" % ("format", problem.format))
    for key in ("name", "universals", "existentials", "clauses",
                "min_dep", "max_dep", "skolem"):
        print("%-14s %s" % (key, stats[key]))
    subset_pairs = sum(1 for _ in
                       problem.instance.dependency_subset_pairs())
    print("%-14s %d" % ("subset_pairs", subset_pairs))
    return 0


def cmd_gen(args):
    from repro.benchgen import (
        generate_controller_instance,
        generate_pec_instance,
        generate_planted_instance,
        generate_xor_chain_instance,
    )
    from repro.benchgen.pec import generate_defined_pec_instance
    from repro.benchgen.succinct_sat import generate_random_succinct_sat
    from repro.benchgen.xor_chain import generate_coupled_xor_instance

    from repro.benchgen.arithmetic import (
        generate_adder_pec_instance,
        generate_comparator_instance,
    )
    from repro.parsing import write_dqdimacs

    makers = {
        "coupled-xor": lambda: generate_coupled_xor_instance(
            seed=args.seed),
        "adder": lambda: generate_adder_pec_instance(seed=args.seed),
        "comparator": lambda: generate_comparator_instance(
            seed=args.seed),
        "pec": lambda: generate_pec_instance(seed=args.seed),
        "defined-pec": lambda: generate_defined_pec_instance(
            seed=args.seed),
        "controller": lambda: generate_controller_instance(
            seed=args.seed),
        "succinct-sat": lambda: generate_random_succinct_sat(
            seed=args.seed),
        "planted": lambda: generate_planted_instance(seed=args.seed),
        "xor-chain": lambda: generate_xor_chain_instance(seed=args.seed),
    }
    if args.family not in makers:
        raise SystemExit("unknown family %r (choose from %s)"
                         % (args.family, ", ".join(sorted(makers))))
    instance = makers[args.family]()
    text = write_dqdimacs(instance, comment="family=%s seed=%s"
                          % (args.family, args.seed))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("wrote %s (%s)" % (args.output, instance.name),
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _print_progress(record):
    print("  %-10s %-40s %-12s %6.2f s"
          % (record.engine, record.instance, record.status,
             record.time), file=sys.stderr)


def _emit_report(table, output):
    from repro.portfolio.report import render_report

    text = "\n".join(render_report(table)) + "\n"
    if output:
        with open(output, "w") as handle:
            handle.write(text)
        print("wrote %s" % output, file=sys.stderr)
    else:
        sys.stdout.write(text)


def cmd_bench(args):
    from repro.benchgen import build_suite

    suite = build_suite(args.suite, seed=args.seed)
    solvers = [_make_solver(name, args.seed)
               for name in ("manthan3", "expansion", "pedant")]
    batch = solve_batch(suite, solvers, timeout=args.timeout,
                        jobs=args.jobs, seed=args.seed,
                        progress=_print_progress if args.verbose
                        else None)
    _emit_report(batch.table, args.output)
    return 0


def _run_elastic_worker(args, names, suite):
    """``run-suite --elastic``: join a shared multi-worker campaign as
    one lease-claiming worker (see :mod:`repro.portfolio.elastic`)."""
    import signal

    from repro.portfolio.elastic import ElasticWorker

    worker = ElasticWorker(
        suite, names, args.out, worker_id=args.worker_id,
        timeout=args.timeout, seed=args.seed, certify=True,
        lease_duration=args.lease_duration, drain_mode=args.drain,
        progress=_print_progress if args.verbose else None,
        solution_cache=_solution_cache(args),
        max_retries=args.max_retries, retry_backoff=args.retry_backoff,
        memory_limit_mb=args.memory_limit_mb)
    signal.signal(signal.SIGTERM,
                  lambda *_sig: worker.request_drain())
    try:
        summary = worker.run()
    except ReproError as exc:  # e.g. campaign parameter mismatch
        raise SystemExit(str(exc))
    print("elastic worker %s: %d executed (%d cache hits), "
          "%d recovered, %d reclaimed, %d released%s"
          % (summary["worker_id"], summary["executed"],
             summary["cache_hits"], summary["recovered"],
             summary["reclaimed"], summary["released"],
             " (drained)" if summary["drained"] else ""),
          file=sys.stderr)
    if summary["complete"] and summary["table"] is not None:
        print("campaign complete: merged %d records into %s"
              % (len(summary["table"].records), args.out),
              file=sys.stderr)
        _emit_report(summary["table"], args.report)
    else:
        print("campaign still in progress: other workers hold leases "
              "(store %s)" % args.out, file=sys.stderr)
    return 0


def cmd_run_suite(args):
    """Batch campaign: generated suite × engine selection, parallel
    and resumable."""
    from repro.benchgen import build_suite
    from repro.portfolio import CampaignStore

    names = _parse_engine_names(args.engines)
    suite = build_suite(args.suite, seed=args.seed)
    if args.limit is not None:
        suite = suite[:args.limit]

    if args.elastic:
        if not args.out:
            raise SystemExit(
                "--elastic needs --out: the shared campaign store all "
                "workers coordinate through")
        if args.sat_backend:
            raise SystemExit(
                "--elastic workers run registry engines as published "
                "(other workers must build identical engines); "
                "--sat-backend is not supported")
        return _run_elastic_worker(args, names, suite)

    solvers = [_make_solver(name,
                            sat_backend=args.sat_backend
                            if _is_pipeline_engine(name) else None)
               for name in names]

    store = CampaignStore(args.out) if args.out else None
    executed = [0]

    def progress(record):
        executed[0] += 1
        if args.verbose:
            _print_progress(record)

    try:
        batch = solve_batch(suite, solvers, timeout=args.timeout,
                            jobs=args.jobs, seed=args.seed, store=store,
                            resume=args.resume, progress=progress,
                            max_retries=args.max_retries,
                            retry_backoff=args.retry_backoff,
                            memory_limit_mb=args.memory_limit_mb,
                            solution_cache=_solution_cache(args))
    except ReproError as exc:  # e.g. resume parameter mismatch
        raise SystemExit(str(exc))
    # progress fires only for executed runs; every other pair of the
    # campaign was loaded from the store.
    resumed = len(suite) * len(solvers) - executed[0]
    print("campaign: %d instances x %d engines -> %d runs executed, "
          "%d resumed (jobs=%d)"
          % (len(suite), len(solvers), executed[0], resumed, args.jobs),
          file=sys.stderr)
    if store is not None:
        print("campaign store: %s" % store.path, file=sys.stderr)
    _emit_report(batch.table, args.report)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Manthan3 reproduction: Henkin function synthesis "
                    "for DQBF")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize Henkin functions")
    synth.add_argument("file")
    synth.add_argument("--engine", default="manthan3", metavar="NAME",
                       help="one of %s, or a 'race:a+b' group that runs "
                            "several concurrently and keeps the first "
                            "decisive answer" % "/".join(engine_names()))
    synth.add_argument("--format", default="auto",
                       choices=["auto", "dqdimacs", "qdimacs"])
    synth.add_argument("--output-format", default="infix",
                       choices=["infix", "aiger", "verilog"])
    synth.add_argument("--timeout", type=float, default=None)
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--sat-backend", default=None, metavar="NAME",
                       help="SAT oracle backend for pipeline engines: "
                            "one of %s, optionally with a ':variant' "
                            "suffix (e.g. 'pysat:minisat22', "
                            "'faulty:python'; 'pysat' needs the "
                            "python-sat package)"
                            % "/".join(backend_names()))
    synth.add_argument("--verbose", action="store_true",
                       help="render per-phase progress from the solve "
                            "event stream")
    synth.add_argument("--solution-cache", default=None, metavar="PATH",
                       help="certified solution cache (JSONL index + "
                            "AIGER payloads next to it): equivalent "
                            "resubmissions — same formula up to "
                            "variable renaming and clause reordering — "
                            "answer from the cache after independent "
                            "re-certification")
    synth.add_argument("--no-cache", action="store_true",
                       help="ignore --solution-cache entirely")
    synth.add_argument("-o", "--output", default=None)
    synth.set_defaults(func=cmd_synth)

    info = sub.add_parser("info", help="print instance statistics")
    info.add_argument("file")
    info.add_argument("--format", default="auto",
                      choices=["auto", "dqdimacs", "qdimacs"])
    info.set_defaults(func=cmd_info)

    gen = sub.add_parser("gen", help="generate a benchmark instance")
    gen.add_argument("family")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="run an evaluation campaign")
    bench.add_argument("--suite", default="smoke",
                       choices=["smoke", "small", "medium"])
    bench.add_argument("--timeout", type=float, default=10.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
    bench.add_argument("--verbose", action="store_true")
    bench.add_argument("-o", "--output", default=None)
    bench.set_defaults(func=cmd_bench)

    run_suite = sub.add_parser(
        "run-suite",
        help="parallel, resumable campaign over a generated suite")
    run_suite.add_argument("--suite", default="small",
                           choices=["smoke", "small", "medium"])
    run_suite.add_argument("--engines",
                           default="manthan3,expansion,pedant",
                           help="comma-separated engine names; "
                                "'race:a+b' groups race their members "
                                "on each instance and keep the first "
                                "decisive answer")
    run_suite.add_argument("--timeout", type=float, default=10.0)
    run_suite.add_argument("--seed", type=int, default=0)
    run_suite.add_argument("--sat-backend", default=None, metavar="NAME",
                           help="SAT oracle backend applied to every "
                                "pipeline engine in --engines "
                                "(baselines keep their own oracles); "
                                "':variant' suffixes work, e.g. "
                                "'faulty:python' for the fault injector")
    run_suite.add_argument("--jobs", type=int, default=1,
                           help="worker processes (default 1)")
    run_suite.add_argument("--max-retries", type=int, default=0,
                           help="re-run a killed/crashed job up to "
                                "N extra times (same derived seed; "
                                "default 0)")
    run_suite.add_argument("--retry-backoff", type=float, default=0.25,
                           help="base seconds of the exponential retry "
                                "delay (default 0.25)")
    run_suite.add_argument("--memory-limit-mb", type=int, default=None,
                           help="per-worker address-space ceiling; an "
                                "OOM becomes a clean UNKNOWN record")
    run_suite.add_argument("--limit", type=int, default=None,
                           help="cap the suite at its first N instances")
    run_suite.add_argument("--out", default=None,
                           help="campaign store (JSONL), streamed as "
                                "runs complete")
    run_suite.add_argument("--resume", action="store_true",
                           help="skip (engine, instance) pairs already "
                                "in --out")
    run_suite.add_argument("--report", default=None,
                           help="write the evaluation report (incl. the "
                                "per-phase time breakdown) here instead "
                                "of stdout")
    run_suite.add_argument("--verbose", action="store_true")
    run_suite.add_argument("--elastic", action="store_true",
                           help="join --out as one lease-claiming worker "
                                "of a multi-worker campaign: start the "
                                "same command on several machines/shells "
                                "sharing the store directory and they "
                                "split the jobs; workers may join, "
                                "leave, or crash at any time")
    run_suite.add_argument("--worker-id", default=None, metavar="ID",
                           help="stable elastic worker identity "
                                "(default host-pid); reusing an ID "
                                "after a crash recovers its finished "
                                "but unpublished runs")
    run_suite.add_argument("--lease-duration", type=float, default=30.0,
                           help="seconds an elastic job lease stays "
                                "valid between heartbeats; other "
                                "workers reclaim the job this long "
                                "after its holder stops renewing "
                                "(default 30)")
    run_suite.add_argument("--drain", default="release",
                           choices=["release", "finish"],
                           help="SIGTERM behaviour for elastic workers: "
                                "'release' cancels the in-flight run "
                                "and returns its lease, 'finish' "
                                "completes it first (default release)")
    run_suite.add_argument("--solution-cache", default=None,
                           metavar="PATH",
                           help="certified solution cache shared by the "
                                "campaign (and by concurrent elastic "
                                "workers): instances equivalent to a "
                                "cached one answer instantly after "
                                "re-certification; cold decisive "
                                "outcomes are stored back")
    run_suite.add_argument("--no-cache", action="store_true",
                           help="ignore --solution-cache entirely")
    run_suite.set_defaults(func=cmd_run_suite)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
