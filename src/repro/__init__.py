"""repro — Manthan3 reproduction: *Synthesis with Explicit Dependencies*.

A pure-Python reproduction of the DATE 2023 paper's Henkin-function
synthesis system, including every substrate the original delegates to
external tools (SAT, MaxSAT, sampling, decision trees, definition
extraction) and the baselines it evaluates against.

The public surface is the :mod:`repro.api` façade, re-exported here::

    from repro import Problem, Solver

    problem = Problem.from_file("problem.dqdimacs")
    solution = Solver("manthan3").solve(problem, timeout=60)
    if solution.synthesized:
        assert solution.certify().valid
"""

from repro import api
from repro.api import (
    BatchResult,
    CancellationToken,
    Problem,
    Solution,
    Solver,
    solve,
    solve_batch,
)
from repro.core import Manthan3Config, SynthesisResult, Status
from repro.baselines import (
    ExpansionSynthesizer,
    PedantLikeSynthesizer,
    SkolemCompositionSynthesizer,
)
from repro.dqbf import DQBFInstance, check_henkin_vector, skolem_instance
from repro.parsing import (
    parse_dqdimacs,
    parse_dqdimacs_file,
    parse_qdimacs,
    write_dqdimacs,
    write_qdimacs,
)

__version__ = "2.0.0"

__all__ = [
    # the façade
    "api",
    "BatchResult",
    "CancellationToken",
    "Problem",
    "Solution",
    "Solver",
    "solve",
    "solve_batch",
    # engine types and baselines
    "Manthan3Config",
    "SynthesisResult",
    "Status",
    "ExpansionSynthesizer",
    "PedantLikeSynthesizer",
    "SkolemCompositionSynthesizer",
    # instance model and parsing
    "DQBFInstance",
    "skolem_instance",
    "check_henkin_vector",
    "parse_dqdimacs",
    "parse_dqdimacs_file",
    "parse_qdimacs",
    "write_dqdimacs",
    "write_qdimacs",
    "__version__",
]

