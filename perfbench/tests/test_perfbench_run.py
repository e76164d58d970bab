"""The benchmark's own machinery: the reported tail, output checks, seed isolation."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import curvecast as cc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import digest, digest_matches  # noqa: E402


def test_reported_p90_has_ten_samples_beyond_it_on_one_pass(tmp_path):
    # A run always completes its first pass, so one pass's latencies suffice.
    for build in (workloads.forecast_pass, workloads.cli_pass):
        p = build(0, str(tmp_path))
        tally = run.Tally()
        for i, op in enumerate(p.ops):
            tally.samples.setdefault(op.kind, []).append((i + 1) * 1e-3)
            tally.units += op.units
        tally.busy_s = 1.0
        _, _, counts = run.end_to_end(p, tally, 1.0)
        assert counts["samples_beyond_p90"] >= 10, (p.workload, counts)


def test_tolerance_admits_drift_and_rejects_changed_quantile_or_seed():
    curves = np.random.default_rng(0).normal(size=(400, 74))
    lower = cc.empirical_quantile(curves, 0.025, axis=0)
    ref = digest(lower)
    drift = 3e-10 * np.random.default_rng(1).uniform(-1.0, 1.0, size=74)
    assert digest_matches(digest(lower + drift), ref)
    assert not digest_matches(digest(cc.empirical_quantile(curves, 0.03, axis=0)), ref)
    nearest_rank = np.sort(curves, axis=0)[int(np.ceil(0.025 * 400)) - 1]
    assert not digest_matches(digest(nearest_rank), ref)
    one_point = lower.copy()
    one_point[40] += 1e-3
    assert not digest_matches(digest(one_point), ref)
    other_seed = np.random.default_rng(2).normal(size=(400, 74))
    assert not digest_matches(digest(cc.empirical_quantile(other_seed, 0.025, axis=0)), ref)


def _ints(value, out):
    if isinstance(value, (bool, np.bool_)):
        return
    if isinstance(value, (int, np.integer)):
        out.add(int(value))
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _ints(getattr(value, f.name), out)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _ints(v, out)


def test_seed_reaches_the_library_only_through_generated_inputs(tmp_path):
    seed = 123457
    seen = set()

    def collect(**arguments):
        for v in arguments.values():
            _ints(v, seen)
        return 0

    global_state = np.random.get_state()[1].copy()
    first = workloads.forecast_pass(workloads.variant_of(seed, 0), str(tmp_path))
    again = workloads.forecast_pass(workloads.variant_of(seed, 0), str(tmp_path))
    other = workloads.forecast_pass(workloads.variant_of(seed, 1), str(tmp_path))
    rec = spans.Recorder()
    names = spans.public_functions("curvecast").values()
    patches = spans.install(rec, key_fns={name: collect for name in names})
    try:
        got = first.ops[0].observe(first.ops[0].call())
    finally:
        spans.uninstall(patches)
    assert rec.stats["sieve.sieve_prediction"].calls == 1
    assert seed not in seen
    assert np.array_equal(np.random.get_state()[1], global_state)
    assert again.ops[0].observe(again.ops[0].call()).digests == got.digests
    assert other.ops[0].observe(other.ops[0].call()).digests != got.digests


def test_benchmark_json_metrics_are_all_produced():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    extra = dict.fromkeys(
        ["trace.overhead_frac", "cli.main.nonzero_exits", "evalharness.failed_days",
         "evalharness.skipped_cells", "pkg.src_lines", "pkg.public_names"], 0)
    values = run.per_layer(bench["per_layer"], spans.Recorder(), extra)
    assert list(values) == [m["name"] for m in bench["per_layer"]]
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "throughput_per_s", "latency_trimmed_mean_ms", "latency_p90_ms",
        "peak_rss_mb"]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.BUILDERS)
