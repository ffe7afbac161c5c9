"""PERF — substrate micro-benchmarks.

Sanity timings for the from-scratch components the engines sit on: the
CDCL solver, the MaxSAT solvers, the constrained sampler, the decision
tree, the Tseitin encoder — and the parallel campaign scheduler that
fans engine runs over worker processes.  Useful to spot regressions
when tuning.
"""

import random

from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.formula.tseitin import TseitinEncoder
from repro.learning.decision_tree import DecisionTree
from repro.maxsat import solve_maxsat
from repro.sampling import sample_models
from repro.sat.solver import Solver, UNSAT


def _php(pigeons):
    holes = pigeons - 1
    cnf = CNF()
    for p in range(1, pigeons + 1):
        cnf.add_clause([(p - 1) * holes + h for h in range(1, holes + 1)])
    for h in range(1, holes + 1):
        for p1 in range(1, pigeons + 1):
            for p2 in range(p1 + 1, pigeons + 1):
                cnf.add_clause([-((p1 - 1) * holes + h),
                                -((p2 - 1) * holes + h)])
    return cnf


def _random_3sat(num_vars, ratio, seed):
    rng = random.Random(seed)
    cnf = CNF(num_vars=num_vars)
    for _ in range(int(num_vars * ratio)):
        vs = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return cnf


def test_sat_php7_unsat(benchmark):
    cnf = _php(7)

    def solve():
        return Solver(cnf).solve()

    assert benchmark(solve) == UNSAT


def test_sat_random3sat_sat(benchmark):
    cnf = _random_3sat(120, 3.0, seed=5)

    def solve():
        return Solver(cnf, rng=1).solve()

    benchmark(solve)


def test_maxsat_fu_malik(benchmark):
    hard = _random_3sat(40, 2.5, seed=9)
    softs = [[v] for v in range(1, 21)]

    def solve():
        return solve_maxsat(hard, softs, algorithm="fu-malik", rng=2)

    result = benchmark(solve)
    assert result.satisfiable


def test_maxsat_linear(benchmark):
    hard = _random_3sat(30, 2.5, seed=9)
    softs = [[v] for v in range(1, 16)]

    def solve():
        return solve_maxsat(hard, softs, algorithm="linear", rng=2)

    result = benchmark(solve)
    assert result.satisfiable


def test_sampler_throughput(benchmark):
    """Persistent-solver sampling."""
    cnf = _random_3sat(60, 2.0, seed=3)

    def draw():
        return sample_models(cnf, 20, rng=4,
                             weighted_vars=list(range(1, 10)))

    samples = benchmark(draw)
    assert len(samples) == 20


def test_decision_tree_training(benchmark):
    rng = random.Random(8)
    features = list(range(1, 13))
    rows = [{f: rng.randint(0, 1) for f in features} for _ in range(300)]
    labels = [(r[1] ^ r[2]) & r[3] for r in rows]

    def train():
        return DecisionTree().fit(rows, labels, features)

    tree = benchmark(train)
    assert tree.root is not None


def test_tseitin_encoding(benchmark):
    rng = random.Random(12)
    from repro.benchgen.circuits import random_circuit_expr

    exprs = [random_circuit_expr(list(range(1, 13)), 6, rng)
             for _ in range(10)]

    def encode():
        cnf = CNF(num_vars=12)
        encoder = TseitinEncoder(cnf)
        for expr in exprs:
            encoder.encode(expr)
        return cnf

    cnf = benchmark(encode)
    assert len(cnf) > 0


def test_parallel_campaign_throughput(benchmark):
    """Pool-path campaign over the smoke suite: scheduler + fork
    overhead on top of the engine runs themselves."""
    from benchmarks.conftest import bench_jobs, bench_timeout
    from repro.benchgen import build_suite
    from repro.portfolio import run_campaign

    suite = build_suite("smoke", seed=3)

    def run():
        return run_campaign(suite, ["manthan3", "expansion"],
                            timeout=bench_timeout(), seed=3,
                            jobs=max(2, bench_jobs()))

    table = benchmark(run)
    assert len(table.records) == 2 * len(suite)
    assert table.solved_instances("expansion")
