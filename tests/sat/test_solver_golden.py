"""Golden CDCL trajectories: the reference solver against committed digests.

Every other solver test checks *answers* (SAT models satisfy, cores are
UNSAT, backends agree with each other).  None of them notices when a
rewrite of :class:`repro.sat.solver.Solver` keeps the answers correct but
changes the search: a different decision, watch swap or heap order gives
a different (still valid) model, and the synthesis loop built on top of
it then learns different functions.  The repo's contract is that
trajectories stay bit-identical, so this file pins them.

Each case is a seeded script: a random CNF (``tests.conftest.random_cnf``)
or an XOR-chain system solved a few times under assumptions and
conflict budgets, or an incremental session that opens and releases
clause groups between solves.  The cases cycle through every polarity
mode, some with ``random_var_freq > 0``.  After each ``solve`` the
record is ``[status, sha256(sorted model or core), conflicts,
decisions, propagations, restarts]``; the committed records live in
``golden_trajectories.json`` next to this file.

Regenerate the file only for a *deliberate* trajectory change, and say
so in the change log::

    PYTHONPATH=src python -m tests.sat.test_solver_golden --regen
"""

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.formula.cnf import CNF
from repro.sampling.xor import add_parity_constraint
from repro.sat.solver import SAT, UNSAT, Solver

from tests.conftest import random_cnf

GOLDEN = Path(__file__).with_name("golden_trajectories.json")
POLARITY_MODES = ("saved", "false", "random", "weighted")


def _sha(payload):
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _solve(solver, records, **kwargs):
    status = solver.solve(**kwargs)
    if status == SAT:
        payload = sorted(solver.model.items())
    elif status == UNSAT:
        payload = sorted(solver.core)
    else:
        payload = None
    stats = solver.stats()
    records.append([status, _sha(payload), stats["conflicts"],
                    stats["decisions"], stats["propagations"],
                    stats["restarts"]])


def _solver(rng, case, num_vars):
    """A solver whose heuristics depend on the case number: the polarity
    mode cycles, and every third case also branches randomly."""
    mode = POLARITY_MODES[case % len(POLARITY_MODES)]
    weights = None
    if mode == "weighted":
        weights = {v: rng.random() for v in range(1, num_vars + 1)
                   if rng.random() < 0.7}
    return Solver(rng=rng.randrange(1 << 30), polarity_mode=mode,
                  random_var_freq=0.05 if case % 3 == 2 else 0.0,
                  polarity_weights=weights)


def _random_lits(rng, num_vars, count):
    return [rng.choice((1, -1)) * rng.randint(1, num_vars)
            for _ in range(count)]


def _one_shot(rng, case, cnf):
    """Solve ``cnf`` plainly, under assumptions, then under a budget."""
    num_vars = cnf.num_vars
    solver = _solver(rng, case, num_vars)
    solver.add_cnf(cnf)
    records = []
    _solve(solver, records)
    for _ in range(3):
        _solve(solver, records,
               assumptions=_random_lits(rng, num_vars, rng.randint(1, 6)))
    _solve(solver, records, assumptions=_random_lits(rng, num_vars, 2),
           conflict_budget=rng.randint(1, 20))
    return records


def _ksat(rng, num_vars, num_clauses, k=3):
    """Uniform random k-SAT: ``k`` distinct variables per clause."""
    cnf = CNF(num_vars=num_vars)
    for _ in range(num_clauses):
        cnf.add_clause([rng.choice((1, -1)) * v
                        for v in rng.sample(range(1, num_vars + 1), k)])
    return cnf


def _ksat_case(case):
    """Random 3-SAT around the threshold.  The last cases are large
    enough for restarts and learnt-clause reductions."""
    rng = random.Random(7000 + case)
    num_vars = rng.randint(30, 90) if case < 24 else rng.randint(120, 140)
    cnf = _ksat(rng, num_vars, int(num_vars * rng.uniform(3.8, 4.6)))
    return _one_shot(rng, case, cnf)


def _random_cnf_case(case):
    """Mixed widths with units, duplicates and tautologies: exercises the
    root-level simplification in ``add_clause``."""
    rng = random.Random(7500 + case)
    num_vars = rng.randint(12, 30)
    cnf = random_cnf(rng, num_vars=num_vars,
                     num_clauses=rng.randint(num_vars // 2, num_vars),
                     max_width=5)
    return _one_shot(rng, case, cnf)


def _xor_case(case):
    rng = random.Random(8000 + case)
    num_vars = rng.randint(10, 16)
    cnf = CNF(num_vars=num_vars)
    planted = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    for i in range(rng.randint(num_vars // 2, num_vars)):
        chosen = [v for v in range(1, num_vars + 1) if rng.random() < 0.5]
        parity = sum(planted[v] for v in chosen) % 2 == 1
        # Odd cases flip one parity: usually an unsatisfiable system.
        if case % 2 and i == 0:
            parity = not parity
        add_parity_constraint(cnf, chosen, parity)
    return _one_shot(rng, case, cnf)


def _incremental_case(case):
    """Clause groups opened, solved under and released in a loop, with
    permanent clauses, assumptions and budgets mixed in."""
    rng = random.Random(9000 + case)
    num_vars = rng.randint(20, 40)
    solver = _solver(rng, case, num_vars)
    solver.ensure_vars(num_vars)
    solver.add_cnf(_ksat(rng, num_vars, int(num_vars * 2.5)))
    live = []
    records = []
    for _ in range(8):
        action = rng.random()
        if action < 0.5 or not live:
            group = solver.new_group()
            live.append(group)
            for clause in _ksat(rng, num_vars,
                                rng.randint(3, num_vars // 2)).clauses:
                solver.add_clause(clause, group=group)
        elif action < 0.8:
            solver.release_group(live.pop(rng.randrange(len(live))))
        else:
            solver.add_clause(_random_lits(rng, num_vars, rng.randint(2, 5)))
        budget = rng.randint(1, 30) if rng.random() < 0.3 else None
        _solve(solver, records,
               assumptions=_random_lits(rng, num_vars, rng.randint(0, 4)),
               conflict_budget=budget)
    return records


CASES = {}
CASES.update(("random-3sat-%02d" % i, (_ksat_case, i)) for i in range(27))
CASES.update(("random-cnf-%02d" % i, (_random_cnf_case, i))
             for i in range(8))
CASES.update(("xor-chain-%02d" % i, (_xor_case, i)) for i in range(16))
CASES.update(("incremental-%02d" % i, (_incremental_case, i))
             for i in range(12))


def trajectory(name):
    build, case = CASES[name]
    return build(case)


@functools.lru_cache(maxsize=None)
def _golden():
    with GOLDEN.open() as handle:
        return json.load(handle)


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(name):
    assert trajectory(name) == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.sat.test_solver_golden --regen")
    with GOLDEN.open("w") as out:
        json.dump({name: trajectory(name) for name in sorted(CASES)},
                  out, indent=1, sort_keys=True)
        out.write("\n")
