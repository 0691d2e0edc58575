"""Compare two result sets of the benchmark, or summarize one.

    python3 perfbench/run.py compare PARENT.jsonl [CHANGE.jsonl]

A result set is a file of lines written by `run.py --save`. For every
end-to-end metric of BENCHMARK.json and every workload, one row gives each
side's median and quartiles (statistics.quantiles, n=4) and, with two sets, a
verdict:

- better: the change wins at least 9/10 of the pairs (runs with the same
  seed, or else runs in file order; ties count for neither) and the medians
  differ by more than the parent's quartile spread;
- unresolved: the parent's quartile spread, as a share of its median, is
  wider than the metric's bound, unless every change run beats every parent
  run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

A last row per workload gives each set's median machine probe (see
run.machine_probe), with no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# A fixed task timed by run.py before each pass; a change in it between two
# sets means the machine, not the program, changed speed.
PROBE = "machine_probe_ms"


def load(path: str) -> dict:
    """(workload, metric) -> {seed: value}, untraced runs only. The machine
    probe is kept under the metric name "machine_probe_ms"."""
    table: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        values = {name: m["value"] for name, m in record["result"]["metrics"].items()}
        if "probe_ms" in record:
            values[PROBE] = record["probe_ms"]
        for name, value in values.items():
            table.setdefault((record["workload"], name), {})[record["seed"]] = value
    return table


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, str]:
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    _, c_med, _ = quartiles(list(change.values()))
    seeds = sorted(set(parent) & set(change))
    if seeds:
        pairs = [(parent[s], change[s]) for s in seeds]
    else:
        pairs = list(zip(parent.values(), change.values()))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    won = f"{wins}/{len(pairs)}"
    gain = sign * (p_med - c_med)
    all_better = all(sign * (p - c) > 0 for p in parent.values() for c in change.values())
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "better", won
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved", won
    if -gain / p_med > bound:
        return "worse", won
    return "unchanged", won


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    sets = [load(path) for path in argv]
    workloads = sorted({w for table in sets for (w, _) in table})
    probe = {"name": PROBE, "unit": "ms", "better": "lower", "bound": 0.0}
    for workload in workloads:
        for metric in spec["end_to_end"] + [probe]:
            key = (workload, metric["name"])
            if any(key not in table for table in sets):
                continue
            cells = []
            for table in sets:
                q1, med, q3 = quartiles(list(table[key].values()))
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(table[key])} "
                             f"spread={(q3 - q1) / med:.3f}")
            row = f"{workload:<11} {metric['name']:<15} {metric['unit']:<3} " + " | ".join(cells)
            if len(sets) == 2 and metric is not probe:
                result, pairs = verdict(sets[0][key], sets[1][key], metric["better"], metric["bound"])
                row += f" | pairs won {pairs} | {result}"
            print(row)
    return 0
