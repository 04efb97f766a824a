#!/usr/bin/env python3
"""Check the perf ledger's summary figures against its raw pairs.

usage: python3 ci/check_ledger.py [BENCH_gevobench.json [BENCHMARK.json]]

Every section of the ledger that holds paired runs (each workload under
"workloads" and under each entry of "rounds", and the "holdout" and
"traced" sections when they have the same shape) carries `per_pair`
lists of [parent, change] values and a `metrics` summary. For every
summarised metric this recomputes, from the lists alone:

- each side's median and quartiles (linear interpolation between order
  statistics, as statistics.quantiles(method="inclusive") does);
- the change's wins and losses (pairs where it is strictly better or
  strictly worse, in the direction BENCHMARK.json gives the metric);
- the ratio of the change's median to the parent's;

and fails, listing every mismatch, when a recorded figure disagrees, a
summarised metric has no pair list, or a list's length is not the
section's pair count. It needs no build.
"""

import json
import statistics
import sys


def quartiles(values):
    """(q1, median, q3) by inclusive linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def close(recorded, computed, digits):
    """True when \\p recorded is \\p computed rounded to \\p digits places."""
    return abs(recorded - computed) <= 0.5 * 10 ** -digits + 1e-12


def directions(benchmark):
    out = {}
    for group in ("end_to_end", "per_layer"):
        for metric in benchmark.get(group, []):
            out[metric["name"]] = metric["better"]
    return out


def check_section(name, section, better, errors):
    pairs = section["pairs"]
    per_pair = section.get("per_pair", {})
    for metric, summary in section["metrics"].items():
        where = f"{name}: {metric}"
        if metric not in per_pair:
            errors.append(f"{where}: summarised but has no per_pair list")
            continue
        values = per_pair[metric]
        if len(values) != pairs:
            errors.append(f"{where}: {len(values)} pairs listed, "
                          f"section says {pairs}")
            continue
        if metric not in better:
            errors.append(f"{where}: not a BENCHMARK.json metric")
            continue
        for i, side in enumerate(("parent", "change")):
            q1, med, q3 = quartiles([pair[i] for pair in values])
            for key, computed in (("q1", q1), ("median", med), ("q3", q3)):
                recorded = summary[side][key]
                if not close(recorded, computed, 6):
                    errors.append(f"{where}: {side} {key} recorded "
                                  f"{recorded}, recomputed {computed:.6f}")
        sign = 1 if better[metric] == "higher" else -1
        wins = sum(1 for p, c in values if sign * (c - p) > 0)
        losses = sum(1 for p, c in values if sign * (c - p) < 0)
        if summary["change_wins"] != wins:
            errors.append(f"{where}: change_wins recorded "
                          f"{summary['change_wins']}, recomputed {wins}")
        if summary["change_losses"] != losses:
            errors.append(f"{where}: change_losses recorded "
                          f"{summary['change_losses']}, recomputed {losses}")
        parent_med = quartiles([p for p, _ in values])[1]
        change_med = quartiles([c for _, c in values])[1]
        ratio = summary.get("change_over_parent_median")
        if parent_med != 0 and ratio is not None:
            if not close(ratio, change_med / parent_med, 4):
                errors.append(f"{where}: change_over_parent_median recorded "
                              f"{ratio}, recomputed "
                              f"{change_med / parent_med:.4f}")


def main(argv):
    ledger_path = argv[1] if len(argv) > 1 else "BENCH_gevobench.json"
    benchmark_path = argv[2] if len(argv) > 2 else "BENCHMARK.json"
    with open(ledger_path) as f:
        ledger = json.load(f)
    with open(benchmark_path) as f:
        better = directions(json.load(f))

    sections = [(f"workloads.{w}", s)
                for w, s in ledger.get("workloads", {}).items()]
    for r, round_ in ledger.get("rounds", {}).items():
        sections += [(f"rounds.{r}.{w}", s)
                     for w, s in round_.get("workloads", {}).items()]
    for extra in ("holdout", "traced"):
        if isinstance(ledger.get(extra), dict) and \
                "per_pair" in ledger[extra]:
            sections.append((extra, ledger[extra]))
    if not sections:
        print(f"{ledger_path}: no paired sections", file=sys.stderr)
        return 1

    errors = []
    checked = 0
    for name, section in sections:
        check_section(name, section, better, errors)
        checked += len(section["metrics"])
    for error in errors:
        print(f"{ledger_path}: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"{ledger_path}: {checked} metric summaries in {len(sections)} "
          f"sections match their pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
