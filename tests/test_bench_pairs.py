"""The paired-benchmark summary, on canned runs; no benchmark is started."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"latency_trimmed_mean_ms": "lower", "throughput_per_s": "higher"}


def canned(workload, seed, values, correct=True):
    """Runs from ``values``: one (parent, change) tuple of latencies per pair."""
    runs = []
    for pair, (parent, change) in enumerate(values):
        for side, ms in (("parent", parent), ("change", change)):
            runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                         "correct": correct,
                         "metrics": {"latency_trimmed_mean_ms": ms, "throughput_per_s": 1e3 / ms}})
    return runs


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        values = [(80.0, 70.0), (90.0, 71.0), (85.0, 69.0), (86.0, 86.0), (84.0, 90.0)]
        row = bench_pairs.summarize(canned("forecast_loop", 0, values), BETTER)
        latency = row["forecast_loop/seed0"]["latency_trimmed_mean_ms"]
        assert latency["parent"] == {"median": 85.0, "q1": 84.0, "q3": 86.0, "n": 5}
        assert latency["change"]["median"] == 71.0
        assert (latency["pairs"], latency["change_wins"], latency["parent_wins"]) == (5, 3, 1)
        assert latency["median_change_frac"] == pytest.approx(71.0 / 85.0 - 1.0)
        assert latency["medians_differ_beyond_parent_iqr"]
        # higher is better for throughput: the same pairs, the same winners
        throughput = row["forecast_loop/seed0"]["throughput_per_s"]
        assert (throughput["change_wins"], throughput["parent_wins"]) == (3, 1)

    def test_a_shift_within_the_parent_spread_is_not_beyond_it(self):
        values = [(80.0, 79.0), (90.0, 88.0), (70.0, 69.0), (100.0, 99.0)]
        latency = bench_pairs.summarize(canned("backtest", 5, values), BETTER)[
            "backtest/seed5"]["latency_trimmed_mean_ms"]
        assert latency["change_wins"] == 4
        assert not latency["medians_differ_beyond_parent_iqr"]

    def test_workloads_and_seeds_are_kept_apart(self):
        runs = (canned("forecast_loop", 0, [(80.0, 70.0)])
                + canned("forecast_loop", 5, [(60.0, 65.0)], correct=False)
                + canned("cli_intraday", 0, [(50.0, 40.0), (52.0, 41.0)]))
        summary = bench_pairs.summarize(runs, BETTER)
        assert sorted(summary) == ["cli_intraday/seed0", "forecast_loop/seed0",
                                   "forecast_loop/seed5"]
        one = summary["forecast_loop/seed0"]["latency_trimmed_mean_ms"]
        assert one["parent"] == {"median": 80.0, "q1": 80.0, "q3": 80.0, "n": 1}
        assert summary["forecast_loop/seed5"]["latency_trimmed_mean_ms"]["parent_wins"] == 1
        assert summary["forecast_loop/seed0"]["all_correct"]
        assert not summary["forecast_loop/seed5"]["all_correct"]
        assert summary["cli_intraday/seed0"]["latency_trimmed_mean_ms"]["pairs"] == 2

    def test_traced_runs_are_kept_apart(self):
        traced = canned("cli_intraday", 0, [(90.0, 80.0)])
        for run in traced:
            run["trace"] = 1
        summary = bench_pairs.summarize(canned("cli_intraday", 0, [(50.0, 40.0)]) + traced, BETTER)
        assert sorted(summary) == ["cli_intraday/seed0", "cli_intraday/seed0/traced"]
        latency = summary["cli_intraday/seed0/traced"]["latency_trimmed_mean_ms"]
        assert latency["parent"]["median"] == 90.0 and latency["pairs"] == 1

    def test_a_pair_missing_a_side_is_left_out(self):
        runs = canned("forecast_loop", 0, [(80.0, 70.0), (82.0, 72.0)])[:-1]
        latency = bench_pairs.summarize(runs, BETTER)["forecast_loop/seed0"][
            "latency_trimmed_mean_ms"]
        assert latency["pairs"] == 1 and latency["change_wins"] == 1


def test_package_facts_count_the_checkout(tmp_path):
    pkg = tmp_path / "src" / "curvecast"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("__all__ = ['a', 'b']\na = b = 1\n")
    (pkg / "mod.py").write_text("x = 1\n\n\n")
    (pkg / "notes.txt").write_text("not counted\n")
    assert bench_pairs.package_facts(str(tmp_path)) == {"pkg.src_lines": 5,
                                                        "pkg.public_names": 2}
