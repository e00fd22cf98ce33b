"""Unit tests for the open-loop scale harness (repro.bench.scale).

The expensive part — actually running the pinned matrix — is covered
by the ``scale-smoke`` CI job against the committed ``BENCH_scale.json``;
these tests pin the pure logic around it: spec flattening, knee
finding, and the check gates.
"""

from pathlib import Path

import pytest

from repro.bench.scale import (
    KNEE_THRESHOLD,
    SCALE_MATRIX,
    SCHEMA,
    SMOKE_CASES,
    _first_collapsed,
    check_report,
    find_knee,
    knee_tables,
    load_report,
    render_tables,
    select_cases,
)
from repro.bench.scale import main as scale_main


def point(multiplier, offered, ratio, fingerprint="f0", rss_kb=1000):
    return {
        "multiplier": multiplier,
        "offered_tps": offered,
        "goodput_ratio": ratio,
        "fingerprint": fingerprint,
        "peak_rss_kb": rss_kb,
    }


class TestMatrix:
    def test_every_system_has_a_case(self):
        systems = {case.system for case in SCALE_MATRIX}
        assert systems == {"dynamast", "single-master", "multi-master",
                           "partition-store", "leap"}

    def test_flagship_hits_issue_scale(self):
        flagship = next(c for c in SCALE_MATRIX
                        if c.name == "dynamast-diurnal-16x100k")
        assert flagship.sites == 16
        assert flagship.open_loop.modeled_clients >= 100_000
        assert flagship.table_keys() >= 1_000_000
        assert flagship.open_loop.curve == "diurnal"

    def test_smoke_subset_excludes_flagship(self):
        names = {case.name for case in select_cases(smoke=True)}
        assert names == set(SMOKE_CASES)
        assert "dynamast-diurnal-16x100k" not in names

    def test_specs_scale_the_ladder(self):
        case = SCALE_MATRIX[0]
        specs = case.specs()
        assert len(specs) == len(case.ladder)
        base = dict(case.open_loop.curve_params)["rate_tps"]
        for multiplier, spec in zip(case.ladder, specs):
            assert spec.streaming_metrics
            assert spec.open_loop is not None
            params = dict(spec.open_loop.curve_params)
            assert params["rate_tps"] == pytest.approx(base * multiplier)
            assert spec.label.endswith(f"@x{multiplier:g}")


class TestKnee:
    def test_highest_sustaining_point_wins(self):
        points = [point(1, 100, 0.99), point(2, 200, 0.95),
                  point(4, 400, 0.40)]
        assert find_knee(points)["multiplier"] == 2

    def test_none_when_ladder_starts_saturated(self):
        assert find_knee([point(1, 100, 0.50)]) is None

    def test_threshold_is_inclusive(self):
        assert find_knee([point(1, 100, KNEE_THRESHOLD)]) is not None


class TestCheck:
    def wrap(self, points, budget_mb=1):
        return {"cases": {"case": {"points": points,
                                   "rss_budget_mb": budget_mb}}}

    def test_identical_reports_pass(self):
        report = self.wrap([point(1, 100, 0.99)])
        assert check_report(report, report) == []

    def test_fingerprint_drift_fails(self):
        fresh = self.wrap([point(1, 100, 0.99, fingerprint="aa")])
        pinned = self.wrap([point(1, 100, 0.99, fingerprint="bb")])
        failures = check_report(fresh, pinned)
        assert len(failures) == 1 and "fingerprint" in failures[0]

    def test_rss_over_budget_fails(self):
        fresh = self.wrap([point(1, 100, 0.99, rss_kb=2048)], budget_mb=1)
        failures = check_report(fresh, fresh)
        assert len(failures) == 1 and "budget" in failures[0]

    def test_missing_case_fails(self):
        fresh = self.wrap([point(1, 100, 0.99)])
        assert check_report(fresh, {"cases": {}}) == [
            "case: not in committed report"]

    def test_ladder_length_mismatch_fails(self):
        fresh = self.wrap([point(1, 100, 0.99), point(2, 200, 0.9)])
        pinned = self.wrap([point(1, 100, 0.99)])
        failures = check_report(fresh, pinned)
        assert len(failures) == 1 and "ladder length" in failures[0]


class TestFirstCollapsed:
    def test_first_sub_threshold_rung_past_the_knee(self):
        points = [point(1, 100, 0.99), point(2, 200, 0.95),
                  point(4, 400, 0.80)]
        knee = points[1]
        collapsed = _first_collapsed(points, knee, 0.9)
        assert collapsed is points[2]

    def test_pre_knee_dips_are_not_collapse(self):
        points = [point(1, 100, 0.85), point(2, 200, 0.95)]
        assert _first_collapsed(points, points[1], 0.9) is None

    def test_none_ratio_counts_as_collapsed(self):
        points = [point(1, 100, 0.99), point(2, 200, None)]
        assert _first_collapsed(points, points[0], 0.9) is points[1]

    def test_no_knee_blames_the_first_failing_rung(self):
        points = [point(1, 100, 0.5)]
        assert _first_collapsed(points, None, 0.9) is points[0]


class TestRenderTables:
    """The committed BENCH_scale.json is the single source of the knee
    tables; EXPERIMENTS.md and docs/SCALE.md embed the rendered output
    verbatim, and these pins keep them from drifting."""

    @pytest.fixture(scope="class")
    def tables(self):
        root = Path(__file__).resolve().parent.parent
        return knee_tables(load_report(str(root / "BENCH_scale.json"), SCHEMA))

    def test_experiments_md_embeds_the_summary_table(self, tables):
        root = Path(__file__).resolve().parent.parent
        text = (root / "EXPERIMENTS.md").read_text()
        assert tables["summary"] in text

    def test_scale_md_embeds_detail_and_flagship_tables(self, tables):
        root = Path(__file__).resolve().parent.parent
        text = (root / "docs" / "SCALE.md").read_text()
        assert tables["detail"] in text
        assert tables["dynamast-diurnal-16x100k"] in text

    def test_knee_rows_are_bolded(self, tables):
        assert "**" in tables["detail"]
        flagship = tables["dynamast-diurnal-16x100k"]
        bolded = [line for line in flagship.splitlines() if "**" in line]
        assert len(bolded) == 1  # exactly the knee rung

    def test_render_tables_emits_one_document(self):
        root = Path(__file__).resolve().parent.parent
        report = load_report(str(root / "BENCH_scale.json"), SCHEMA)
        document = render_tables(report)
        assert document.startswith("<!-- generated by `repro perf --scale")
        for fragment in knee_tables(report).values():
            assert fragment in document

    def test_main_render_tables_path_runs_nothing(self):
        root = Path(__file__).resolve().parent.parent
        emitted = []
        code = scale_main(
            render_tables=True,
            baseline_path=str(root / "BENCH_scale.json"),
            emit=emitted.append,
        )
        assert code == 0
        assert len(emitted) == 1
        assert "Per-system knees (EXPERIMENTS.md):" in emitted[0]

    def test_synthetic_ladder_case_without_knee(self):
        report = {
            "cases": {
                "tiny-constant-8x20k": {
                    "system": "tiny",
                    "points": [point(1, 100, 0.5)],
                    "knee": None,
                },
            },
        }
        tables = knee_tables(report)
        assert "| tiny | none | x1: ratio 0.50 |" in tables["summary"]
        assert "| tiny | none | - | x1 = 100/s | 0.50 |" in tables["detail"]
