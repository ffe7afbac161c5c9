"""Tests for the evaluation report renderer."""

from repro.core.result import Status
from repro.portfolio.report import (
    elastic_summary,
    race_summary,
    render_report,
)
from repro.portfolio.runner import ResultTable, RunRecord


def build_table():
    records = []

    def rec(engine, inst, status, t):
        certified = True if status == Status.SYNTHESIZED else None
        records.append(RunRecord(engine, inst, status, t,
                                 certified=certified))

    rec("manthan3", "easy", Status.SYNTHESIZED, 1.0)
    rec("expansion", "easy", Status.SYNTHESIZED, 0.5)
    rec("pedant", "easy", Status.SYNTHESIZED, 2.0)
    rec("manthan3", "m3only", Status.SYNTHESIZED, 3.0)
    rec("expansion", "m3only", Status.UNKNOWN, 0.1)
    rec("pedant", "m3only", Status.TIMEOUT, 10.0)
    rec("manthan3", "hard", Status.UNKNOWN, 0.2)
    rec("expansion", "hard", Status.SYNTHESIZED, 1.5)
    rec("pedant", "hard", Status.SYNTHESIZED, 1.2)
    return ResultTable(records, timeout=10.0)


class TestRenderReport:
    def test_sections_present(self):
        lines = render_report(build_table())
        text = "\n".join(lines)
        for section in ("solved counts", "virtual best synthesizer",
                        "pairwise comparisons", "fastest engine",
                        "unique solves", "unsolved-but-solvable"):
            assert section in text, section

    def test_counts_correct(self):
        text = "\n".join(render_report(build_table()))
        counts_line = next(l for l in text.splitlines()
                           if "manthan3" in l and "/" in l)
        assert "2 / 3" in counts_line
        assert "VBS(all): 3 solved (+1 from manthan3)" in text

    def test_unique_solves_listed(self):
        text = "\n".join(render_report(build_table()))
        assert "m3only" in text

    def test_display_names(self):
        lines = render_report(build_table(),
                              display_names={"expansion": "HQS2*"})
        text = "\n".join(lines)
        assert "HQS2*" in text

    def test_incompleteness_breakdown(self):
        text = "\n".join(render_report(build_table()))
        assert "incompleteness (UNKNOWN): 1" in text

    def test_phase_breakdown_absent_without_phase_stats(self):
        text = "\n".join(render_report(build_table()))
        assert "per-phase time breakdown" not in text

    def test_phase_breakdown_rendered(self):
        table = build_table()
        table.add(RunRecord(
            "manthan3", "staged", Status.SYNTHESIZED, 1.0,
            certified=True,
            stats={"phases": {"sample": 0.25, "learn": 0.50,
                              "verify_repair": 0.25}}))
        text = "\n".join(render_report(table))
        assert "per-phase time breakdown" in text
        assert "learn" in text
        assert "50.0%" in text


def race_record(inst, winner, saved):
    return RunRecord(
        "race:manthan3+expansion", inst, Status.SYNTHESIZED, 1.0,
        certified=True,
        stats={"race": {"group": "race:manthan3+expansion",
                        "members": ["manthan3", "expansion"],
                        "winner": winner, "winner_time": 1.0,
                        "outcomes": {}, "saved": saved}})


def elastic_record(engine, inst, worker, claims=1, reclaims=0):
    return RunRecord(
        engine, inst, Status.SYNTHESIZED, 1.0, certified=True,
        stats={"worker": {"id": worker, "host": "h"},
               "lease": {"claims": claims, "reclaims": reclaims,
                         "worker": worker}})


class TestRaceSection:
    def test_absent_without_race_records(self):
        assert race_summary(build_table()) is None
        assert "engine racing" not in "\n".join(
            render_report(build_table()))

    def test_wins_and_saved_aggregate(self):
        table = ResultTable([race_record("a", "manthan3", 2.0),
                             race_record("b", "manthan3", 1.5),
                             race_record("c", "expansion", 0.0)],
                            timeout=10.0)
        summary = race_summary(table)
        assert summary["races"] == 3
        assert summary["wins"] == {"manthan3": 2, "expansion": 1}
        assert summary["saved"] == 3.5

    def test_rendered_section(self):
        table = build_table()
        table.add(race_record("raced", "expansion", 4.25))
        text = "\n".join(render_report(table))
        assert "-- engine racing --" in text
        assert "raced runs:        1" in text
        assert "wins expansion" in text
        assert "4.250 s" in text


class TestElasticSection:
    def test_absent_without_lease_stamps(self):
        assert elastic_summary(build_table()) is None
        assert "elastic campaign" not in "\n".join(
            render_report(build_table()))

    def test_per_worker_counts_and_reclaims(self):
        table = ResultTable(
            [elastic_record("manthan3", "a", "w1"),
             elastic_record("manthan3", "b", "w1", claims=2,
                            reclaims=1),
             elastic_record("expansion", "a", "w2")],
            timeout=10.0)
        summary = elastic_summary(table)
        assert summary["runs"] == 3
        assert summary["workers"] == {"w1": 2, "w2": 1}
        assert summary["claims"] == 4
        assert summary["reclaims"] == 1

    def test_rendered_section(self):
        table = build_table()
        table.add(elastic_record("manthan3", "leased", "w1", claims=2,
                                 reclaims=1))
        text = "\n".join(render_report(table))
        assert "-- elastic campaign --" in text
        assert "worker w1" in text
        assert "reclaimed leases:  1 (of 2 claims)" in text

    def test_merged_elastic_campaign_renders_both_ids(self, tmp_path):
        # end to end: a real two-id elastic store renders per-worker
        # counts straight from the merged canonical file
        from repro.dqbf.instance import DQBFInstance
        from repro.formula.cnf import CNF
        from repro.portfolio.elastic import ElasticWorker
        from repro.portfolio.store import CampaignStore

        cnf = CNF([[-2, 1], [2, -1]])
        instances = [DQBFInstance([1], {2: [1]}, cnf, name="i")]
        store = str(tmp_path / "camp.jsonl")
        ElasticWorker(instances, ["manthan3"], store,
                      worker_id="w1", timeout=10.0, seed=7).run()
        text = "\n".join(render_report(CampaignStore(store).load()))
        assert "-- elastic campaign --" in text
        assert "worker w1" in text
