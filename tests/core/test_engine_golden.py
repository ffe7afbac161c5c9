"""Golden engine trajectories: seeded manthan3 runs against committed records.

The synthesis loop has one implementation.  What pins its behaviour is
this file, not a second copy of the loop: for every (engine, instance,
seed) below, a run must reproduce the committed record exactly —

* the status;
* the SHA-256 of the printed result: the function vector (one
  ``"<y> <to_infix()>"`` line per existential, in sorted-y order) for
  SYNTHESIZED, the sorted witness for FALSE, ``null`` otherwise;
* ``stats["repair_iterations"]``;
* every oracle session's call and conflict counters from
  ``stats["oracle"]`` (``null`` for runs that build no session).

A different sample, tree split, counterexample model, repair core or
RNG spawn changes at least one of these.  The instances are the planted,
controller, PEC, XOR-chain, smoke-suite and random families the engine's
path-equivalence tests used, under the seeds those tests ran, for the
default engine and both registry ablations.  The small suite
(``build_suite("small", 0)``, manthan3 seed 0) is recorded here too but
checked inside ``tests/sat/test_core_lockstep.py``, which already solves
it.

Regenerate the file only for a *deliberate* trajectory change, and say
so in the change log::

    PYTHONPATH=src python -m tests.core.test_engine_golden --regen
"""

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.api import Solver
from repro.benchgen import (
    build_suite,
    generate_controller_instance,
    generate_pec_instance,
    generate_planted_instance,
    generate_xor_chain_instance,
)
from repro.dqbf.instance import DQBFInstance
from repro.formula.cnf import CNF
from repro.portfolio.parallel import derive_job_seed

from tests.conftest import paper_example, random_small_dqbf

GOLDEN = Path(__file__).with_name("golden_engine_trajectories.json")
ENGINES = ("manthan3", "manthan3-nopre", "manthan3-noselfsub")


def _planted(universals, width, rules, seed):
    return generate_planted_instance(
        num_universals=universals, num_existentials=3, dep_width=width,
        region_width=3, rules_per_y=rules, seed=seed)


def _tiny(universals, deps, clauses):
    return DQBFInstance(universals, deps, CNF(clauses))


def _instances():
    """``label -> (instance, seed, overrides)``.  ``seed`` is an int, or
    a campaign seed ``("campaign", s)`` that is derived per engine the
    way a campaign derives its job seeds."""
    out = {}
    mixed = [_planted(14 + 2 * i, 12, 4, 40 + i) for i in range(3)]
    mixed.append(generate_controller_instance(
        num_state=3, num_disturbance=2, num_controls=2, observable=True,
        seed=44))
    mixed.append(generate_pec_instance(
        num_inputs=5, num_outputs=2, num_boxes=1, depth=2,
        realizable=True, seed=45))
    for inst in mixed:
        out[inst.name] = (inst, 9, None)
        out[inst.name + "@campaign3"] = (inst, ("campaign", 3), None)
    for seed in (47, 21):
        inst = _planted(14, 12, 4, seed)
        out[inst.name] = (inst, 9, None)
    for seed in (11, 12, 13):
        inst = _planted(16, 14, 5, seed)
        out[inst.name] = (inst, 9, None)
    for seed in (101, 102, 103):
        inst = _planted(12, 10, 4, seed)
        out[inst.name] = (inst, 7, None)
    for i in range(3):
        inst = _planted(14 + 2 * i, 12, 4, 30 + i)
        out[inst.name + "@campaign3"] = (inst, ("campaign", 3), None)
    for inst in build_suite("smoke", seed=1)[:4]:
        out["smoke1-" + inst.name + "@campaign3"] = (inst, ("campaign", 3),
                                                    None)
    inst = generate_xor_chain_instance(chain_length=3, window=2, seed=4)
    out[inst.name] = (inst, 9, None)
    false_cases = {
        "false-extension": _tiny([1], {2: [1]}, [[1]]),
        "false-unsat-matrix": _tiny([1], {2: [1]}, [[2], [-2]]),
        "false-unit-fastpath": _tiny([1], {2: [1]}, [[1], [1, 2]]),
    }
    for label, inst in false_cases.items():
        out[label] = (inst, 2, None)
        out[label + "@seed9"] = (inst, 9, None)
    out["paper-example-1"] = (paper_example(), 7, None)
    rng = random.Random(5)
    for trial in range(10):
        out["fuzz5-%d" % trial] = (random_small_dqbf(rng), 7,
                                   {"num_samples": 30,
                                    "max_repair_iterations": 40})
    return out


def _small_suite():
    return {"small0-" + inst.name: (inst, 0, None)
            for inst in build_suite("small", 0)}


def key(engine, label, seed):
    return "%s|%s|%d" % (engine, label, seed)


def _cases():
    """``key -> (engine, instance, seed, overrides)`` for this file's
    parametrized test (the small suite is not among them)."""
    cases = {}
    for label, (inst, seed, overrides) in _instances().items():
        for engine in ENGINES:
            if isinstance(seed, tuple):
                run_seed = derive_job_seed(seed[1], engine, inst.name)
            else:
                run_seed = seed
            cases[key(engine, label, run_seed)] = (engine, inst, run_seed,
                                                   overrides)
    return cases


def small_suite_keys():
    """``instance name -> golden key`` of the small-suite entries."""
    return {inst.name: key("manthan3", label, seed)
            for label, (inst, seed, _) in _small_suite().items()}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _vector_text(functions):
    return "\n".join("%d %s" % (y, functions[y].to_infix())
                     for y in sorted(functions))


def record(solution):
    """The golden record of one :class:`~repro.api.Solution`."""
    if solution.functions is not None:
        printed = _vector_text(solution.functions)
    elif solution.witness is not None:
        printed = json.dumps(sorted(solution.witness.items()))
    else:
        printed = None
    oracle = solution.stats.get("oracle")
    if oracle is not None:
        oracle = {name: {k: v for k, v in counters.items()
                         if k.startswith("calls") or k == "conflicts"}
                  for name, counters in oracle.items()
                  if isinstance(counters, dict)}
    return {
        "status": solution.status,
        "sha256": None if printed is None else _sha(printed),
        "repair_iterations": solution.stats.get("repair_iterations"),
        "oracle": oracle,
    }


def run(engine, instance, seed, overrides=None):
    return record(Solver(engine, seed=seed,
                         overrides=overrides).solve(instance))


@functools.lru_cache(maxsize=None)
def golden():
    with GOLDEN.open() as handle:
        return json.load(handle)


CASES = _cases()


def test_golden_file_covers_every_case():
    assert sorted(golden()) == sorted(set(CASES)
                                      | set(small_suite_keys().values()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(name):
    assert run(*CASES[name]) == golden()[name]


def regenerate():
    records = {name: run(*case) for name, case in CASES.items()}
    for label, (inst, seed, _) in _small_suite().items():
        records[key("manthan3", label, seed)] = run("manthan3", inst, seed)
    with GOLDEN.open("w") as out:
        json.dump(records, out, indent=1, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.core.test_engine_golden --regen")
    regenerate()
