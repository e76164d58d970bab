"""Run the benchmark in alternated pairs on two checkouts and write one paired-numbers file.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload forecast_loop \
        --pairs 10 --seed 0 --output BENCH_<n>.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds X --trace T``
(T is ``--trace``, 0 by default) once in each checkout, the parent first in even pairs and the change first in odd ones,
one run at a time.  The output file holds every run (its metrics and ``correct`` flag),
then per workload and seed each end-to-end metric's medians, quartiles and win count,
and each side's ``pkg.src_lines`` and ``len(curvecast.__all__)``.  A change wins a pair
when its value is better in the direction ``BENCHMARK.json`` gives; ties count for
neither.  Quartiles are ``statistics.quantiles(values, n=4, method="inclusive")``.
Repeat ``--workload`` and ``--seed`` to run several; an existing ``--output`` is
extended, not overwritten, so runs can be added in several sittings.  Traced runs
(``--trace 1``, for their per-layer metrics) are summarized apart, under
``W/seedS/traced``, because tracing slows every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def spread(values: list) -> dict:
    """Median and quartiles of a list of numbers (all three the value when there is one)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list, better: dict) -> dict:
    """Per ``workload/seed`` and metric: each side's spread, the change's wins and the verdict.

    ``runs`` are the records this script writes (``workload``, ``seed``, ``pair``,
    ``side``, ``correct``, ``metrics``); ``better`` maps a metric to "lower" or "higher".
    A pair counts only when both of its runs report the metric.
    """
    groups, out = {}, {}
    for r in runs:
        traced = "/traced" if r.get("trace") else ""
        groups.setdefault(f"{r['workload']}/seed{r['seed']}{traced}", []).append(r)
    for key, group in sorted(groups.items()):
        by_pair = {}
        for r in group:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        row = {"all_correct": all(r["correct"] for r in group)}
        for name, direction in better.items():
            sign = 1.0 if direction == "lower" else -1.0
            pairs = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                     for p in by_pair.values()
                     if all(name in p.get(side, {}).get("metrics", {}) for side in SIDES)]
            if not pairs:
                continue
            parent, change = spread([a for a, _ in pairs]), spread([b for _, b in pairs])
            row[name] = {
                "parent": parent,
                "change": change,
                "pairs": len(pairs),
                "change_wins": sum(sign * (b - a) < 0 for a, b in pairs),
                "parent_wins": sum(sign * (b - a) > 0 for a, b in pairs),
                "median_change_frac": change["median"] / parent["median"] - 1.0,
                "medians_differ_beyond_parent_iqr":
                    abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
            }
        out[key] = row
    return out


def package_facts(checkout: str) -> dict:
    """``pkg.src_lines`` and ``pkg.public_names`` of a checkout, counted as the benchmark does."""
    pkg = os.path.join(checkout, "src", "curvecast")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    code = "import curvecast; print(len(curvecast.__all__))"
    names = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": os.path.dirname(pkg)})
    return {"pkg.src_lines": lines, "pkg.public_names": int(names.stdout)}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in ``checkout``: its ``correct`` flag and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} in {checkout} exited {done.returncode}: {done.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    doc = {"runs": []}
    if os.path.exists(args.output):
        with open(args.output, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["packages"] = {side: package_facts(path) for side, path in checkouts.items()}
    for workload in args.workload:
        for seed in args.seed or [0]:
            done = [r["pair"] for r in doc["runs"]
                    if (r["workload"], r["seed"], r.get("trace", 0)) == (workload, seed, args.trace)]
            first = max(done, default=-1) + 1
            for pair in range(first, first + args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
                    doc["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                        "side": side, **({"trace": 1} if args.trace else {}),
                                        **run})
                    print(f"{workload} seed {seed} pair {pair} {side}: correct={run['correct']} "
                          f"{json.dumps(run['metrics'])}", flush=True)
                    doc["summary"] = summarize(doc["runs"], better)
                    with open(args.output, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
