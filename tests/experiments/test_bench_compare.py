"""`repro bench --compare` against incomplete or malformed baselines.

The perf surface grows over time, so a freshly added case is routinely
absent from the committed baseline; old or hand-edited baselines may also
hold garbage where a case dict is expected.  The compare path must warn
and keep going in every such case — a KeyError here would turn "we added
a benchmark" into a red CI run.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.perf import (
    REGRESSION_THRESHOLD,
    bench_regression_failures,
    compare_bench_results,
)


def _results(**cases: float) -> dict:
    return {"cases": {name: {"optimized_s": s} for name, s in cases.items()}}


class TestCompareBenchResults:
    def test_case_missing_from_baseline_is_listed_as_new(self):
        table, n_regressions = compare_bench_results(
            _results(old=0.010, brand_new=0.5), _results(old=0.010)
        )
        assert n_regressions == 0
        assert "brand_new" in table
        assert "(new case)" in table
        assert "no case regressed" in table

    @pytest.mark.parametrize(
        "baseline",
        [
            {},
            {"cases": None},
            {"cases": []},
            {"config": {"n_points": 1}},
            [],
            "junk",
            None,
        ],
    )
    def test_malformed_baseline_documents_never_crash(self, baseline):
        table, n_regressions = compare_bench_results(_results(a=0.01), baseline)
        assert n_regressions == 0
        assert "(new case)" in table

    @pytest.mark.parametrize(
        "entry",
        [
            0.010,  # bare number where a case dict is expected
            {"optimized_s": "fast"},
            {"optimized_s": True},
            {"optimized_s": None},
            {"reference_s": 0.010},  # no optimized_s at all
            None,
        ],
    )
    def test_malformed_baseline_entries_read_as_missing(self, entry):
        baseline = {"cases": {"a": entry}}
        table, n_regressions = compare_bench_results(_results(a=0.01), baseline)
        assert n_regressions == 0
        assert "(new case)" in table

    def test_regression_still_flagged_alongside_a_new_case(self):
        results = _results(slow=0.030, brand_new=0.5)
        baseline = _results(slow=0.010)
        table, n_regressions = compare_bench_results(results, baseline)
        assert n_regressions == 1
        assert "WARNING" in table
        assert "(new case)" in table
        assert REGRESSION_THRESHOLD < 0.030 / 0.010

    def test_case_missing_from_current_run_is_listed(self):
        table, n_regressions = compare_bench_results(
            _results(a=0.01), _results(a=0.01, retired=0.02)
        )
        assert n_regressions == 0
        assert "retired" in table
        assert "(missing from current run)" in table


class TestBenchRegressionFailures:
    def test_missing_and_malformed_cases_never_fail_the_gate(self):
        results = _results(brand_new=10.0, mangled=10.0)
        baseline = {"cases": {"mangled": {"optimized_s": "oops"}}}
        assert bench_regression_failures(results, baseline, 1.5) == []

    def test_real_regression_still_fails(self):
        results = _results(slow=0.030, brand_new=10.0)
        baseline = _results(slow=0.010)
        failures = bench_regression_failures(results, baseline, 1.5)
        assert [name for name, _ in failures] == ["slow"]
        assert failures[0][1] == pytest.approx(3.0)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            bench_regression_failures(_results(a=0.01), _results(a=0.01), 0.0)


class TestBenchCompareCLIWarning:
    """`repro bench --compare` warns (exit 0) on a baseline missing a case."""

    FAKE = {
        "config": {"n_points": 100},
        "cases": {
            "old_case": {"optimized_s": 0.010},
            "new_case": {"optimized_s": 0.020},
        },
    }

    def test_warns_and_gate_stays_green(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            "repro.experiments.run_perf_bench", lambda **kwargs: dict(self.FAKE)
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"cases": {"old_case": {"optimized_s": 0.010}}}))
        out_path = tmp_path / "new.json"
        code = main(
            [
                "bench",
                "--out",
                str(out_path),
                "--compare",
                str(baseline),
                "--fail-above",
                "1.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "WARNING: baseline" in out
        assert "no entry for new_case" in out
        assert "regenerate the baseline" in out
        assert "regression gate passed" in out

    def test_no_warning_when_baseline_is_complete(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            "repro.experiments.run_perf_bench", lambda **kwargs: dict(self.FAKE)
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self.FAKE))
        code = main(
            ["bench", "--out", str(tmp_path / "new.json"), "--compare", str(baseline)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "WARNING: baseline" not in out

    def test_refuses_to_overwrite_the_compare_baseline(
        self, monkeypatch, tmp_path
    ):
        def never_run(**kwargs):
            raise AssertionError("the bench ran before the --out check")

        monkeypatch.setattr("repro.experiments.run_perf_bench", never_run)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self.FAKE))
        before = baseline.read_bytes()
        monkeypatch.chdir(tmp_path)
        # The same file by another spelling is refused too.
        with pytest.raises(SystemExit, match="refusing to overwrite"):
            main(["bench", "--out", "./baseline.json", "--compare", str(baseline)])
        assert baseline.read_bytes() == before
