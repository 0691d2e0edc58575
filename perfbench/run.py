"""The roadmapper benchmark: CLI latency, throughput and memory per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload las --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all ...         # every workload in turn
    python3 perfbench/run.py ... --save results.jsonl   # also append the result
    python3 perfbench/run.py --record                   # rewrite reference.json
    python3 perfbench/run.py compare BEFORE.jsonl AFTER.jsonl

Load model: a closed loop with one client. Each invocation of
`roadmapper.cli.main(argv)` runs in a fresh child process, one at a time
(perfbench/child.py). A pass is the workload's fixed invocation list, run in
a seeded order under a fresh PYTHONHASHSEED; passes repeat until --seconds
have elapsed (at least two whole ones; the last may be cut). Outputs are
checked after the timed region (checks.py). Timings are medians over the
run; see end_to_end().

With --trace 0 the last line reports every end-to-end metric of
BENCHMARK.json; with --trace 1, untraced and traced passes alternate and it
reports every per-layer metric, with the tracing overhead. The last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
INVOCATION_LIMIT_S = 60.0  # a child running longer is killed and fails
RUN_BUDGET_S = 150.0  # invocations not started by then fail, so the run ends in time
MIN_PASSES = 2


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _require_checkout() -> dict:
    if not (ROOT / "src" / "roadmapper" / "cli.py").is_file():
        _fail("run from the root of a roadmapper checkout (src/roadmapper is missing)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return spec


class Child:
    """One invocation's report, as perfbench/child.py writes it."""

    def __init__(self, inv, header=None, stdout=b"", problem=None):
        self.inv = inv
        self.header = header or {}
        self.stdout = stdout
        self.problem = problem
        self.output_bytes = len(stdout)

    @property
    def cmd_s(self):
        return self.header.get("cmd_s")


def invoke(inv, hashseed: int, trace: bool, limit: float | None = None) -> Child:
    limit = INVOCATION_LIMIT_S if limit is None else limit
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "ROADMAPPER_"))}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hashseed))
    request = json.dumps({"argv": inv.argv, "trace": trace})
    cmd = [sys.executable, "-S", str(HERE / "child.py"), request]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=limit, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return Child(inv, problem=f"killed after {limit:g} s")
    line, _, stdout = proc.stdout.partition(b"\n")
    if proc.returncode != 0 or not line:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return Child(inv, problem=f"child exited {proc.returncode}: {tail}")
    header = json.loads(line)
    if header["error"]:
        return Child(inv, header, stdout, "traceback: " + header["error"].strip().splitlines()[-1])
    return Child(inv, header, stdout)


def machine_probe() -> float:
    """Seconds for a fixed pure-Python task that shares no code with the
    program. It shows when the machine itself got faster or slower between
    two result sets; no metric is adjusted by it."""
    start = time.perf_counter()
    data = [(i * 7919) % 10007 for i in range(100_000)]
    buckets: dict = {}
    for x in data:
        buckets.setdefault(x % 997, []).append(str(x))
    sorted(data)
    sum(len(v) for v in buckets.values())
    return time.perf_counter() - start


def run_passes(invocations, seed: int, seconds: float, trace: bool, checker):
    """Passes until `seconds` elapse; odd passes are traced when `trace` is set.

    After MIN_PASSES whole passes, no invocation starts once `seconds` have
    elapsed: the cut pass's samples count, but not its batch_s.
    """
    rng = random.Random(seed)
    passes, failures = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        order = invocations[:]
        rng.shuffle(order)
        hashseed = rng.randrange(1, 2**32)
        probe_s = machine_probe()
        children = []
        pass_start = time.perf_counter()
        for inv in order:
            elapsed = time.perf_counter() - start
            if elapsed > RUN_BUDGET_S:
                children.append(Child(inv, problem="run budget exhausted"))
            elif len(passes) >= MIN_PASSES and elapsed > seconds:
                break
            else:
                children.append(invoke(inv, hashseed, traced))
        batch_s = time.perf_counter() - pass_start
        for child in children:
            if child.problem is None:
                child.problem = checker.check(
                    child.inv, child.header["rc"], child.stdout, child.header["stderr"]
                )
            if child.problem:
                failures.append((child.inv.key, child.problem))
            child.stdout = b""  # checked; keep memory flat
        passes.append({
            "traced": traced,
            "whole": len(children) == len(order),
            "batch_s": batch_s,
            "children": children,
            "probe_s": probe_s,
        })
        if time.perf_counter() - start > RUN_BUDGET_S:
            break
    return passes, failures


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, with a note on what each
    rests on.

    Timings are medians over the run. On a shared 2-vCPU machine (Python
    3.11), speed shifted by up to 1.7x, in phases from 3 s to minutes long.
    Over six 55 s runs per workload there, an invocation's median time
    spread 0.03-0.11 from run to run (quartile distance over median), and
    its fastest time 0.05-0.18. A per-command metric is the median over the
    workload's distinct invocations of each one's median time. configs_p90_ms
    is the p90 of the configs samples, as many of each invocation: over the
    same six runs it spread 0.055, the p90 of the invocations' medians 0.085,
    and on gen-ladder it leaves 10 samples beyond it.
    batch_s is the median whole pass and setup_s the median import, over
    every child of the run.
    """
    plain = [p for p in passes if not p["traced"]]
    ok = [c for p in plain for c in p["children"] if not c.problem]
    if not ok:
        return {}, {}
    samples: dict[str, list] = {}  # invocation key -> its times, in run order
    by_command: dict[str, list] = {}  # command -> its invocations' sample lists
    for child in ok:
        if child.inv.key not in samples:
            samples[child.inv.key] = []
            by_command.setdefault(child.inv.command, []).append(samples[child.inv.key])
        samples[child.inv.key].append(child.cmd_s * 1000)
    whole = [p for p in plain if p["whole"]]
    values = {
        "setup_s": _median([c.header["import_s"] for c in ok]),
        "batch_s": _median([p["batch_s"] for p in whole]),
        "peak_rss_mb": max(c.header["maxrss_kb"] for c in ok) / 1024,
        "output_mb": _median([sum(c.output_bytes for c in p["children"]) for p in whole]) / 1e6,
    }
    notes = {
        "setup_s": f"median of {len(ok)} imports",
        "batch_s": f"median of {len(whole)} whole passes",
    }
    for command, lists in by_command.items():
        values[f"{command}_ms"] = _median([_median(times) for times in lists])
        notes[f"{command}_ms"] = (
            f"median of {len(lists)} invocations' medians, {sum(map(len, lists))} samples"
        )
    if "configs" in by_command:
        # As many samples of every invocation, so that the cut pass does not
        # weigh the invocations it reached more.
        lists = by_command["configs"]
        each = min(map(len, lists))
        values["configs_p90_ms"] = _p90([t for times in lists for t in times[:each]])
        notes["configs_p90_ms"] = f"p90 of the first {each} samples of {len(lists)} invocations"
    return values, notes


def _layer_values(children) -> dict:
    """Per-layer totals over one traced pass."""
    self_s, incl_s, calls, extra = {}, {}, {}, {}
    out_bytes = 0
    for child in children:
        trace = child.header.get("trace")
        if not trace:
            continue
        out_bytes += child.output_bytes
        for table, source in ((self_s, "self_s"), (incl_s, "incl_s"), (calls, "calls")):
            for name, value in trace[source].items():
                table[name] = table.get(name, 0) + value
        for name in ("parse_bytes", "expand_added", "roadmaps_built", "enumerated",
                     "checks_in_enumerate", "closure_repeats"):
            extra[name] = extra.get(name, 0) + trace[name]

    def ratio(a, b):
        return a / b if b else 0.0

    checks = calls.get("configuration.check", 0)
    return {
        "parser.parse_s": self_s.get("parser.parse", 0.0),
        "parser.parse_kb_per_s": ratio(extra.get("parse_bytes", 0) / 1024, incl_s.get("parser.parse", 0.0)),
        "parser.serialize_s": incl_s.get("parser.serialize", 0.0),
        "inference.closure_s": incl_s.get("inference.closure", 0.0),
        "transforms.expand_s": incl_s.get("transforms.expand", 0.0),
        "transforms.expand_added": extra.get("expand_added", 0),
        "transforms.relax_s": incl_s.get("transforms.relax", 0.0),
        "operationalization.closure_calls": calls.get("operationalization.closure", 0),
        "operationalization.closure_s": self_s.get("operationalization.closure", 0.0),
        "operationalization.closure_repeat_ratio": ratio(
            extra.get("closure_repeats", 0), calls.get("operationalization.closure", 0)
        ),
        "quanteval.propagate_calls": calls.get("quanteval.propagate", 0),
        "quanteval.propagate_s": incl_s.get("quanteval.propagate", 0.0),
        "configuration.check_calls": checks,
        "configuration.check_s": incl_s.get("configuration.check", 0.0),
        "configuration.recheck_calls": checks - extra.get("checks_in_enumerate", 0),
        "configuration.enumerate_s": self_s.get("configuration.enumerate", 0.0),
        "configuration.candidate_yield": ratio(
            extra.get("enumerated", 0), extra.get("checks_in_enumerate", 0)
        ),
        "roadmap.build_s": incl_s.get("roadmap.build", 0.0),
        "roadmap.roadmaps_built": extra.get("roadmaps_built", 0),
        "roadmap.rank_roadmaps_s": incl_s.get("roadmap.rank_roadmaps", 0.0),
        "roadmap.rank_configs_s": incl_s.get("roadmap.rank_configs", 0.0),
        "dot.render_s": incl_s.get("dot.render", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.output_bytes": out_bytes,
    }


# Metrics derived from a span whose name is not their prefix.
DERIVED = {
    "configuration.check": ("configuration.recheck_calls",),
    "configuration.enumerate": ("configuration.candidate_yield",),
    "roadmap.build": ("roadmap.roadmaps_built",),
}


def per_layer(passes) -> tuple[dict, list]:
    """Medians over whole traced passes; metrics of missing spans are left out."""
    traced = [p for p in passes if p["traced"] and p["whole"]]
    plain = [p for p in passes if not p["traced"] and p["whole"]]
    per_pass = [_layer_values(p["children"]) for p in traced]
    values = {name: _median([v[name] for v in per_pass]) for name in per_pass[0]}
    values["trace.overhead_s"] = min(p["batch_s"] for p in traced) - min(
        p["batch_s"] for p in plain
    )
    missing = sorted(
        {m for p in traced for c in p["children"] for m in (c.header.get("trace") or {}).get("missing", [])}
    )
    for span in missing:
        for name in list(values):
            if name.startswith(span + "_") or name in DERIVED.get(span, ()):
                del values[name]
    return values, missing


def configs_share(passes) -> float | None:
    """Traced check_s (inclusive) plus enumerate_s (self) over traced configs time."""
    covered = total = 0.0
    for p in passes:
        for child in p["children"]:
            trace = child.header.get("trace")
            if trace and child.inv.command == "configs" and child.inv.expect_rc == 0:
                covered += trace["incl_s"].get("configuration.check", 0.0)
                covered += trace["self_s"].get("configuration.enumerate", 0.0)
                total += trace["incl_s"]["cli.main"]
    return covered / total if total else None


def run(args) -> int:
    spec = _require_checkout()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        invocations = workloads.WORKLOADS[args.workload](args.seed, workdir)
        passes, failures = run_passes(
            invocations, args.seed, args.seconds, bool(args.trace), checks.Checker()
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["children"]) for p in passes)
    for key, problem in failures:
        print(f"FAILED {key}: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} invocations, error_rate {len(failures) / attempted:.4f}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, missing = per_layer(passes)
        for name in missing:
            print(f"missing: the function traced as {name} no longer exists; its metrics are not reported")
        share = configs_share(passes)
        if share is not None:
            print(f"configuration.check_s + configuration.enumerate_s = {share:.1%} of traced configs time")
        notes = {}
    else:
        values, notes = end_to_end(passes)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            print(f"{name}: not measured on this workload")
            continue
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} = {values[name]:.6g} {metric['unit']}{note}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    if args.save:
        with open(args.save, "a") as fh:
            record = {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "probe_ms": _median([p["probe_s"] for p in passes]) * 1000,
            }
            fh.write(json.dumps(dict(record, result=result)) + "\n")
    print(json.dumps(result))
    return 0


def record(args) -> int:
    """Run las and the canonical gen-ladder once and store their reference outputs."""
    _require_checkout()
    import checks
    import workloads

    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        invocations = workloads.las(0, workdir) + workloads.gen_ladder(0, workdir)
        for inv in invocations:
            child = invoke(inv, 1, False)
            if child.problem or child.header["rc"] != inv.expect_rc:
                _fail(f"{inv.key}: {child.problem or child.header['stderr']}")
            text = child.stdout.decode()
            if inv.model.kind == "las":
                reference[inv.key] = {"sha256": checks.sha256(child.stdout), "bytes": len(child.stdout)}
            else:
                reference[inv.key] = {
                    "model": checks.sha256(inv.model.canonical.encode()),
                    "canon": checks.sha256(checks.canonical(inv.command, text).encode()),
                }
            # The recorded outputs must pass every other check themselves.
            checker = checks.Checker(reference)
            problem = checker.check(inv, child.header["rc"], child.stdout, "")
            if inv.model.kind == "las":
                problem = problem or checker.schema_problem(inv, text)
            if problem:
                _fail(f"{inv.key}: {problem}")
            if inv.key == "las/configs":
                assert json.loads(text)["count"] == 128, "LAS has 128 configurations"
            if inv.key == "las/roadmaps":
                data = json.loads(text)
                counts = (len(data["ranked"]), len(data["excluded"]))
                assert counts == (13440, 2944), f"LAS roadmaps ranked/excluded {counts}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} reference outputs to {checks.REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload, or all of BENCHMARK.json's in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append the result, with workload and seed, to this file")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    if args.record:
        return record(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        for workload in _require_checkout()["workloads"]:
            run(argparse.Namespace(**dict(vars(args), workload=workload["name"])))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
