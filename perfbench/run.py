"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload forecast_loop --seed 0 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
the same checkout; without it the script exits with code 2 and prints no
result.  BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set (see ``BLAS_THREAD_VARS``).  Set-up builds the
seeded inputs and runs one warm-up operation, three times; ``setup_s`` is
the time from this script's start to the first timed operation (imports,
the environment record, set-up, the first reference load) with the three
set-ups counted as their median.
The timed loop then runs the workload's operations one after another
(one client, ``n_workers=1``), at least one whole pass and then until the
next one would end after ``--seconds``, and checks every output against
``reference/``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` one untraced pass is followed by one traced pass over
the same inputs, and the metrics are the per-layer ones; the traced pass
wraps the library's public functions (see ``spans.py``) and removes the
wrappers afterwards.  The last line of standard output is one JSON
object; the command exits 1 when any output check failed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

# One BLAS thread unless the caller chose, set before NumPy is imported.
# On the 2-vCPU machine the benchmark was built on, OpenBLAS's default of
# two threads was no faster than one (median forecast day 292-321 ms
# against 218-300 ms, the second thread spinning), and a busy loop on the
# other vCPU took two threads to 497-524 ms while one thread stayed at
# 218-243 ms.  With two threads, runs measured the neighbours more than
# the code.  Where NumPy is already loaded (under pytest) this only sets
# the environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
BLAS_ENV_GIVEN = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import spans  # noqa: E402
from checks import mismatches  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")
SETUP_REPEATS = 3

#: spans whose tracemalloc peak is recorded (first call, replayed untimed)
MEMORY_SPANS = ("sieve.sieve_prediction", "updating.flr_interval_update")


def load_library() -> float:
    """Import NumPy and the checkout's ``curvecast``; returns seconds since start."""
    pkg = os.path.join(SRC, "curvecast")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise ImportError(f"no library source at {pkg}")
    sys.path.insert(0, SRC)
    import curvecast

    if os.path.dirname(os.path.abspath(curvecast.__file__)) != pkg:
        raise ImportError(f"curvecast imported from {curvecast.__file__}, not {pkg}")
    return time.perf_counter() - _T0


def reference_path(workload: str, variant: int) -> str:
    return os.path.join(REFERENCE, workload, f"{variant}.json")


def load_reference(workload: str, variant: int):
    """Stored per-operation digests of one pass, or None when there are none."""
    try:
        with open(reference_path(workload, variant)) as fh:
            return json.load(fh)["digests"]
    except FileNotFoundError:
        return None


def _digest_key(arr) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).hexdigest()


def _fit_fpca_key(fts, num_components):
    return (_digest_key(fts.values), num_components)


def _draw_replicates_key(fpca, var, cfg):
    history = (_digest_key(fpca.mean), _digest_key(fpca.scores), _digest_key(fpca.residuals))
    return history + (cfg.seed, cfg.num_replicates)


#: per-span input keys behind the unique_ratio metrics
KEY_FNS = {"fpca.fit_fpca": _fit_fpca_key, "sieve.draw_replicates": _draw_replicates_key}


class Tally:
    """Latencies, work units and check results of a measured stretch."""

    def __init__(self):
        self.samples = {}
        self.units = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.nonzero_exits = 0
        self.problems = []
        self.digests = []       # kept only when writing the reference
        self.facts = []
        self.first_op_at = None

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)


def measure(build, first, seed: int, seconds: float, check: bool, whole_pass_only: bool) -> Tally:
    """Run operations until the next would end past ``seconds``, at least one pass.

    ``build(variant)`` makes later passes, untimed.  With ``check`` each
    pass's outputs are compared with the stored reference; without it they
    are kept in ``Tally.digests`` instead, which only the reference writer
    does.
    """
    from workloads import variant_of

    tally = Tally()
    start = time.perf_counter()
    p, index, dt = first, 0, 0.0

    def past_deadline(last_op_s: float) -> bool:
        # No operation is started that the last one's time says would end
        # after the deadline, so a backtest run (one ~35 s operation) never
        # runs a second one.
        return time.perf_counter() - start + last_op_s >= seconds

    while True:
        ref_ops = load_reference(p.workload, p.variant) if check else None
        done = True
        for i, op in enumerate(p.ops):
            t0 = time.perf_counter()
            if tally.first_op_at is None:
                tally.first_op_at = t0
            try:
                result = op.call()
            except Exception:
                tally.attempted += 1
                tally.fail(f"{p.workload}[{p.variant}] op {i} raised: "
                           f"{traceback.format_exc(limit=3)}")
                continue
            dt = time.perf_counter() - t0
            tally.samples.setdefault(op.kind, []).append(dt)
            tally.busy_s += dt
            tally.units += op.units
            if isinstance(result, int) and result != 0:
                tally.nonzero_exits += 1
            try:
                out = op.observe(result)
            except Exception:
                tally.attempted += 1
                tally.fail(f"{p.workload}[{p.variant}] op {i} output unreadable: "
                           f"{traceback.format_exc(limit=3)}")
                continue
            tally.attempted += out.attempted
            tally.failed += out.failed
            if not check:
                tally.digests.append(out.digests)
            elif ref_ops is None or i >= len(ref_ops):
                tally.fail(f"{p.workload}[{p.variant}] op {i}: no stored reference")
            else:
                bad = mismatches(out.digests, ref_ops[i])
                if bad:
                    tally.fail(f"{p.workload}[{p.variant}] op {i} ({op.kind}) differs from "
                               f"the reference in {bad[:6]}")
            if not whole_pass_only and index > 0 and past_deadline(dt):
                done = i == len(p.ops) - 1
                break
        if done:
            tally.attempted += 1
            for msg in p.check():
                tally.fail(f"{p.workload}[{p.variant}] {msg}")
            tally.facts.append(dict(p.facts))
        index += 1
        if whole_pass_only or past_deadline(dt):
            return tally
        p = build(variant_of(seed, index))


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_given": BLAS_ENV_GIVEN,
        "blas_threads_used": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "n_workers": 1,
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def package_facts() -> dict:
    import curvecast

    pkg = os.path.dirname(curvecast.__file__)
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"pkg.src_lines": lines, "pkg.public_names": len(curvecast.__all__)}


def end_to_end(pass0, tally: Tally, setup_s: float) -> tuple:
    """The gated metrics and the issue's named metrics for this workload."""
    primary = [s for kind in pass0.primary for s in tally.samples.get(kind, [])]
    if not primary:
        raise RuntimeError("no operation completed")
    p50 = statistics.median(primary) * 1e3
    # The gate takes the 10 % trimmed mean, not the median.  The 2-vCPU VM
    # the benchmark was built on ran a fixed loop at two speeds about 1.6x
    # apart, switching every few seconds to minutes.  A run's median jumps
    # between the two when about half the run was slow; the trimmed mean
    # moves in proportion to the slow share and still ignores stray spikes.
    ordered = sorted(primary)
    trim = len(ordered) // 10
    trimmed_mean = statistics.fmean(ordered[trim:len(ordered) - trim]) * 1e3
    p90 = float(np.percentile(primary, 90.0)) * 1e3
    beyond_p90 = sum(s * 1e3 > p90 for s in primary)
    throughput = tally.units / tally.busy_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_trimmed_mean_ms": trimmed_mean,
        "latency_p90_ms": p90,
        "peak_rss_mb": rss_mb,
    }
    failed_frac = tally.failed / max(tally.attempted, 1)
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
             "failed_frac": (failed_frac, "ratio")}
    w = pass0.workload
    if w == "backtest":
        named["backtest_days_per_s"] = (throughput, "1/s")
    elif w == "forecast_loop":
        named["forecast_p50_ms"] = (p50, "ms")
        named["forecast_p90_ms"] = (p90, "ms")
    else:
        named["cli_update_p50_ms"] = (p50, "ms")
        named["cli_update_p90_ms"] = (p90, "ms")
        forecasts = tally.samples.get("forecast", [])
        named["cli_forecast_p50_ms"] = (statistics.median(forecasts) * 1e3, "ms")
    return gated, named, {"samples": len(primary), "samples_beyond_p90": beyond_p90}


def per_layer(spec: list, rec, extra: dict) -> dict:
    out = {}
    for entry in spec:
        name = entry["name"]
        if name in extra:
            out[name] = extra[name]
            continue
        layer, rest = name.split(".", 1)
        if rest == "warnings":
            out[name] = rec.warnings.get(layer, 0)
            continue
        span, field = rest.rsplit(".", 1)
        st = rec.stats.get(f"{layer}.{span}")
        if st is None:
            out[name] = 0
        elif field == "unique_ratio":
            out[name] = st.unique_ratio()
        elif field == "peak_alloc_mb":
            out[name] = st.peak_alloc_bytes / 2**20
        else:
            out[name] = getattr(st, field)
    return out


def run(args, workdir: str, import_s: float, bench: dict, env: dict) -> tuple:
    from workloads import BUILDERS, variant_of

    builder = BUILDERS[args.workload]

    def build(variant):
        return builder(variant, workdir)

    prelude_s = time.perf_counter() - _T0
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pass0 = build(variant_of(args.seed, 0))
        pass0.warm()
        builds.append(time.perf_counter() - t0)
    detail = {"workload": args.workload, "seed": args.seed, "variant": pass0.variant,
              "import_s": import_s, "prelude_s": prelude_s, "setup_builds_s": builds,
              "environment": env}

    if not args.trace:
        tally = measure(build, pass0, args.seed, args.seconds, check=True, whole_pass_only=False)
        setup_s = tally.first_op_at - _T0 - sum(builds) + statistics.median(builds)
        gated, named, counts = end_to_end(pass0, tally, setup_s)
        detail.update(counts, op_counts={k: len(v) for k, v in tally.samples.items()},
                      named={k: v[0] for k, v in named.items()}, pass_facts=tally.facts,
                      problems=tally.problems)
        for name, (value, unit) in named.items():
            print(f"{name:24s} {value:14.6g} {unit}")
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in gated.items()}
        return tally, metrics, detail

    untraced = measure(build, pass0, args.seed, args.seconds, check=True, whole_pass_only=True)
    traced_pass = build(pass0.variant)
    rec = spans.Recorder()
    before = spans.attribute_snapshot()
    patches = spans.install(rec, key_fns=KEY_FNS, memory=MEMORY_SPANS)
    try:
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            rec.warning_log = log
            tally = measure(build, traced_pass, args.seed, args.seconds, check=True,
                            whole_pass_only=True)
            rec.finish()
    finally:
        spans.uninstall(patches)
    after = spans.attribute_snapshot()
    spans.replay_peaks(rec)
    changed = sorted(str(k) for k in set(before) | set(after) if before.get(k) != after.get(k))
    tally.attempted += untraced.attempted + 1
    tally.failed += untraced.failed
    tally.problems += untraced.problems
    if changed:
        tally.fail(f"library attributes differ after the traced pass: {changed[:6]}")
    facts = traced_pass.facts
    extra = {
        "trace.overhead_frac": tally.busy_s / untraced.busy_s - 1.0,
        "cli.main.nonzero_exits": tally.nonzero_exits,
        "evalharness.failed_days": facts.get("failed_days", 0),
        "evalharness.skipped_cells": facts.get("skipped_cells", 0),
        **package_facts(),
    }
    values = per_layer(bench["per_layer"], rec, extra)
    detail.update(
        untraced_busy_s=untraced.busy_s, traced_busy_s=tally.busy_s, patched_sites=len(patches),
        warnings=rec.warnings, problems=tally.problems,
        spans={
            name: {"calls": st.calls, "busy_s": st.busy_s, "self_s": st.self_s}
            for name, st in sorted(rec.stats.items())
        },
    )
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return tally, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="curvecast benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = load_library()
    except ImportError as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(BUILDERS)}",
              file=sys.stderr)
        return 2
    env = environment()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base = os.path.join(HERE, "_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        tally, metrics, detail = run(args, workdir, import_s, bench, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in tally.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
