#!/usr/bin/env python3
"""Diffs two result sets of perfbench/run.py, per workload and metric.

    cp -r .bench_build/results /tmp/base     # after runs of the parent
    ... build and run the change ...
    python3 perfbench/compare.py /tmp/base .bench_build/results

A result set is a directory of run records (<workload>-seed<n>-trace<t>.json,
as run.py writes them). Records of several seeds for one workload form one
sample per metric. Every end-to-end metric (trace 0 records) and every
per-layer metric (trace 1 records) is reported with each side's median and
quartiles and the change of the medians. End-to-end rows also get a verdict
against the metric's bound from BENCHMARK.json:

  worse     the new median is worse than the base median by more than the bound
  unresolved the base's own quartile spread is wider than the bound
  ok        otherwise

Exits 1 when any end-to-end row reads "worse".
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {metric: [values]}} plus n/a counts."""
    samples = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        context = record["context"]
        key = (context["workload"], context["trace"])
        for name, metric in record["metrics"].items():
            if name not in record.get("na", []):
                samples[key][name].append(metric["value"])
    return samples


def summary(values):
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return q1, q2, q3


def fmt(value):
    return f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="result directory of the parent")
    parser.add_argument("new", help="result directory of the change")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    worse = 0
    header = (f"{'workload':<12} {'metric':<22} {'n':>5}  {'base q1/med/q3':<28} "
              f"{'new q1/med/q3':<28} {'change':>8}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        metrics = per_layer if trace else end_to_end
        for name, meta in metrics.items():
            b, n = base[key].get(name), new[key].get(name)
            if not b or not n:
                print(f"{workload:<12} {name:<22} {'':>5}  n/a")
                continue
            bq, nq = summary(b), summary(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse_by = change if meta["better"] == "lower" else -change
            verdict = ""
            if not trace:
                spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
                if worse_by > meta["bound"]:
                    verdict, worse = "worse", worse + 1
                elif spread > meta["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print(f"{workload:<12} {name:<22} {len(b):>2}/{len(n):<2}  "
                  f"{'/'.join(fmt(v) for v in bq):<28} "
                  f"{'/'.join(fmt(v) for v in nq):<28} {change:>+8.1%}  {verdict}")
    for key in sorted(set(base) ^ set(new)):
        side = "base" if key in base else "new"
        print(f"{key[0]} trace {key[1]}: only in the {side} set")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
