"""The packed brute-force DQBF oracle agrees with plain enumeration.

``tests.conftest.brute_force_dqbf_true`` is the ground truth of several
soundness tests; it sweeps all universal assignments as bit columns.
This pins it against the obvious per-assignment enumeration, kept here
and nowhere else.
"""

import itertools
import random

from tests.conftest import brute_force_dqbf_true, random_small_dqbf


def _enumerate_dqbf_true(instance):
    xs = instance.universals
    ys = instance.existentials
    deps = {y: sorted(instance.dependencies[y]) for y in ys}
    spaces = [range(1 << (1 << len(deps[y]))) for y in ys]
    for choice in itertools.product(*spaces):
        for bits in itertools.product([False, True], repeat=len(xs)):
            assignment = dict(zip(xs, bits))
            for y, table in zip(ys, choice):
                row = 0
                for i, x in enumerate(deps[y]):
                    if assignment[x]:
                        row |= 1 << i
                assignment[y] = bool((table >> row) & 1)
            if not instance.matrix.evaluate(assignment):
                break
        else:
            return True
    return False


def test_packed_oracle_matches_enumeration():
    rng = random.Random(20261017)
    verdicts = set()
    for _ in range(400):
        instance = random_small_dqbf(rng, max_x=3, max_y=2)
        truth = _enumerate_dqbf_true(instance)
        assert brute_force_dqbf_true(instance) == truth
        verdicts.add(truth)
    assert verdicts == {True, False}
