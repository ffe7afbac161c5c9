"""Run synthesis engines over instance suites, with certification.

Every ``SYNTHESIZED`` claim is re-validated by the independent
certificate checker; a vector that fails certification is recorded as
``INVALID`` and does *not* count as solved (an engine must never be able
to cheat the evaluation).  ``FALSE`` claims that come with an
inextensibility witness are re-checked the same way.

:func:`evaluate_run` is that certification gate; campaigns run it per
job through :func:`repro.portfolio.parallel.run_campaign` (in-process
for ``jobs=1``, in forked workers otherwise) and collect the records in
a :class:`ResultTable`.
"""

from repro.core.result import Status
from repro.dqbf.certificates import check_false_witness, check_henkin_vector


class RunRecord:
    """One (engine, instance) execution.

    ``certified`` is tri-state:

    * ``True``  — the claim was independently checked and is valid;
    * ``False`` — the claim was checked and is *wrong* (the record's
      ``status`` is rewritten to ``INVALID``);
    * ``None``  — nothing was checked: certification was disabled, the
      verdict carries no certificate (``UNKNOWN``/``TIMEOUT``, or a
      ``FALSE`` proved without a witness), or the worker never reported.

    ``result`` optionally carries the engine's full
    :class:`~repro.core.result.SynthesisResult` (functions included) —
    populated by ``evaluate_run(..., keep_result=True)``, which the
    ``repro.api`` batch path uses so ``solve_batch`` solutions expose
    their function vectors.  It is *not* persisted by the campaign
    store (expressions do not serialize to the JSONL schema), and a
    forked worker drops it when it cannot be pickled.

    ``attempts`` counts executions of the job behind this record: 1
    everywhere except forked (pool or elastic) jobs run with
    ``max_retries > 0``, where a killed/crashed job is re-executed and
    its final record carries the total attempt count (wall time burned
    by the failed attempts is under ``stats["retry_lost_time"]``).
    Round-tripped by the campaign store; absent in pre-existing files
    (defaults to 1).
    """

    __slots__ = ("engine", "instance", "status", "time", "reason",
                 "certified", "stats", "result", "attempts")

    def __init__(self, engine, instance, status, time, reason="",
                 certified=None, stats=None, result=None, attempts=1):
        self.engine = engine
        self.instance = instance
        self.status = status
        self.time = time
        self.reason = reason
        self.certified = certified
        self.stats = stats or {}
        self.result = result
        self.attempts = attempts

    @property
    def solved(self):
        """Solved = synthesized a vector that was not refuted.

        ``certified is True`` (checked, valid) and ``certified is None``
        (certification disabled) both count; ``certified is False``
        never does — such records carry status ``INVALID`` and are
        excluded by the status check as well.
        """
        return self.status == Status.SYNTHESIZED and self.certified is not False

    def __repr__(self):
        return "RunRecord(%s, %s, %s, %.3fs)" % (
            self.engine, self.instance, self.status, self.time)


class ResultTable:
    """All records of one evaluation campaign.

    Records are indexed by ``(engine, instance)``, so
    :meth:`record_for` — the inner loop of every VBS/scatter analysis —
    is O(1) instead of a scan.  Adding a second record for the same pair
    replaces the first in the index (last write wins; the records list
    keeps both in arrival order).
    """

    def __init__(self, records=None, timeout=None):
        self.records = []
        self.timeout = timeout
        self._index = {}
        for record in records or ():
            self.add(record)

    def add(self, record):
        self.records.append(record)
        self._index[(record.engine, record.instance)] = record

    def engines(self):
        return sorted({r.engine for r in self.records})

    def instances(self):
        seen = {}
        for r in self.records:
            seen.setdefault(r.instance, None)
        return list(seen)

    def record_for(self, engine, instance):
        return self._index.get((engine, instance))

    def by_engine(self, engine):
        return [r for r in self.records if r.engine == engine]

    def solved_instances(self, engine):
        return {r.instance for r in self.by_engine(engine) if r.solved}

    def time_of(self, engine, instance):
        """Solve time, or ``None`` when unsolved."""
        record = self.record_for(engine, instance)
        if record is not None and record.solved:
            return record.time
        return None


def evaluate_run(engine_name, instance, result, certify=True,
                 certificate_budget=200_000, keep_result=False):
    """Turn one engine :class:`SynthesisResult` into a :class:`RunRecord`.

    This is the single certification gate shared by the sequential
    runner and the pool workers (certification runs *in the worker*, so
    the campaign parent only aggregates finished records):

    * ``SYNTHESIZED`` vectors are re-checked with
      :func:`check_henkin_vector`;
    * ``FALSE`` verdicts carrying an inextensibility witness are
      re-checked with :func:`check_false_witness`;
    * a failed check rewrites the status to ``INVALID``.

    ``keep_result=True`` attaches the full ``SynthesisResult`` to the
    record (see :class:`RunRecord`).
    """
    certified = None
    if certify and result.status == Status.SYNTHESIZED:
        cert = check_henkin_vector(instance, result.functions,
                                   conflict_budget=certificate_budget)
        certified = bool(cert.valid)
    elif certify and result.status == Status.FALSE \
            and result.witness is not None:
        cert = check_false_witness(instance, result.witness,
                                   conflict_budget=certificate_budget)
        certified = bool(cert.valid)
    return RunRecord(
        engine=engine_name,
        instance=instance.name,
        status=result.status if certified is not False else Status.INVALID,
        time=result.stats.get("wall_time", 0.0),
        reason=result.reason,
        certified=certified,
        stats=result.stats,
        result=result if keep_result else None,
    )

