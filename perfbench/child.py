"""Run one roadmapper CLI invocation in this fresh process and report on it.

Usage: python3 -S perfbench/child.py '<request json>'

The request is {"argv": [...], "trace": bool}. The child times the import of
`roadmapper.cli` (the set-up every CLI call pays) and then `main(argv)` with
stdout and stderr captured. It writes one JSON header line to its real
stdout, followed by the captured CLI stdout verbatim:

    {"rc": 0, "import_s": ..., "cmd_s": ..., "maxrss_kb": ..., "stderr": "...",
     "error": null | "<traceback>", "trace": null | {...}}
    <CLI stdout bytes>

With "trace" set, the public functions through which the layers call each
other are wrapped at every `roadmapper.*` module attribute that refers to
them. Each call records a span (name, start, end, parent); the spans are kept
in memory and reduced to per-name inclusive time, self time and counts after
`main` returns. The span names of wrapped functions that no longer exist are
listed under "missing" instead of failing the run.
"""

import sys
import time

_T0 = time.perf_counter()
import roadmapper.cli  # noqa: E402  (timed: this is the CLI's set-up cost)

_IMPORT_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402

# span name -> (home module, attribute names). Each attribute is wrapped
# wherever a roadmapper module holds the same function object.
TRACED = {
    "parser.parse": ("roadmapper.parser", ("parse",)),
    "parser.serialize": ("roadmapper.parser", ("serialize",)),
    "inference.closure": ("roadmapper.inference", ("closure",)),
    "transforms.expand": ("roadmapper.transforms", ("expand_value_conflicts",)),
    "transforms.relax": ("roadmapper.transforms", ("relax_probabilistic", "relax_fuzzy")),
    "operationalization.closure": ("roadmapper.operationalization", ("satisfaction_closure",)),
    "quanteval.propagate": ("roadmapper.quanteval", ("propagate_values",)),
    "configuration.check": ("roadmapper.configuration", ("check_configuration",)),
    "configuration.enumerate": ("roadmapper.configuration", ("enumerate_configurations",)),
    "roadmap.build": ("roadmapper.roadmap", ("build_roadmaps",)),
    "roadmap.rank_roadmaps": ("roadmapper.roadmap", ("rank_roadmaps",)),
    "roadmap.rank_configs": ("roadmapper.roadmap", ("rank_configurations",)),
    "dot.render": ("roadmapper.dot", ("render_dot",)),
}
ROOT = "cli.main"


class Tracer:
    """Spans in flat arrays: name index, parent index, start, end."""

    def __init__(self):
        self.names = [ROOT] + list(TRACED)
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.parse_bytes = 0
        self.expand_added = 0
        self.roadmaps_built = 0
        self.enumerated = 0
        self.checks_in_enumerate = 0
        self.closure_repeats = 0
        self.closure_seen = set()
        self.missing = []

    def open(self, name_index):
        span = len(self.start)
        self.name_of.append(name_index)
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(span)
        return span

    def close(self, span):
        self.end[span] = time.perf_counter()
        self.stack.pop()

    def inside(self, name_index):
        return any(s >= 0 and self.name_of[s] == name_index for s in self.stack)

    def wrap(self, name, fn):
        index = self.names.index(name)
        enumerate_index = self.names.index("configuration.enumerate")
        tracer = self

        def traced(*args, **kwargs):
            if name == "operationalization.closure":
                members = args[0] if args else None
                # Only materialized collections: a generator must reach fn intact.
                key = (
                    frozenset(members)
                    if isinstance(members, (frozenset, set, list, tuple))
                    else None
                )
                if key in tracer.closure_seen:
                    tracer.closure_repeats += 1
                else:
                    tracer.closure_seen.add(key)
            elif name == "parser.parse" and args:
                tracer.parse_bytes += len(args[0].encode())
            elif name == "configuration.check" and tracer.inside(enumerate_index):
                tracer.checks_in_enumerate += 1
            span = tracer.open(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == "transforms.expand":
                tracer.expand_added += len(result[1].added_requirements)
            elif name == "roadmap.build":
                tracer.roadmaps_built += len(result)
            elif name == "configuration.enumerate":
                tracer.enumerated += len(result.configurations)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("roadmapper") and m]
        for name, (home, attrs) in TRACED.items():
            for attr in attrs:
                original = getattr(sys.modules.get(home), attr, None)
                if original is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)

    def summary(self):
        """Per-name inclusive and self time and call counts over all spans."""
        count = len(self.start)
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        incl, self_time, calls = {}, {}, {}
        for i in range(count):
            name = self.names[self.name_of[i]]
            duration = self.end[i] - self.start[i]
            incl[name] = incl.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - covered[i]
            calls[name] = calls.get(name, 0) + 1
        return {
            "incl_s": incl,
            "self_s": self_time,
            "calls": calls,
            "spans": count,
            "parse_bytes": self.parse_bytes,
            "expand_added": self.expand_added,
            "roadmaps_built": self.roadmaps_built,
            "enumerated": self.enumerated,
            "checks_in_enumerate": self.checks_in_enumerate,
            "closure_repeats": self.closure_repeats,
            "missing": self.missing,
        }


def run(argv, trace):
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    root = tracer.open(0) if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = roadmapper.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc()
    finally:
        if tracer:
            tracer.close(root)
    cmd_s = time.perf_counter() - start
    header = {
        "rc": rc,
        "import_s": _IMPORT_S,
        "cmd_s": cmd_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stderr": err.getvalue(),
        "error": error,
        "trace": tracer.summary() if tracer else None,
    }
    return header, out.getvalue()


def main():
    request = json.loads(sys.argv[1])
    header, output = run(request["argv"], request.get("trace", False))
    stream = sys.stdout.buffer
    stream.write(json.dumps(header).encode() + b"\n")
    stream.write(output.encode())
    stream.flush()


if __name__ == "__main__":
    main()
