"""Inputs and invocation lists of the three workloads.

Every workload is a fixed list of CLI invocations (one pass); the benchmark
repeats passes for the run's duration. Inputs are made from the run's seed:

- las: the paper's case study, `models/las.req`, unchanged: check, configs,
  rank r3, roadmaps, dot and relax. Its outputs must match the recorded
  reference byte for byte. check runs LAS_CHECK_COPIES times a pass.
- gen-ladder: a fixed ladder of `testkit.generate_database` models, spec
  seeds 0..n-1 of every rung with and without quantities, none dropped for
  cost. The run's seed shuffles the declarations of every model, so each
  seed gives different files with the same meaning and the same outputs; a
  fresh draw per seed would let the heavy-tailed cost per model swamp every
  metric's seed-to-seed spread. Every model runs configs; one tasks=10 model
  also runs check and dot, and one tasks=6 model rank, roadmaps and relax.
  check, rank and roadmaps run CHEAP_COPIES times a pass.
- model-io: large sparse generated models drawn from the run's seed, plus
  LAS, through check, dot and relax. Nothing is enumerated: configs, rank
  and roadmaps on the 45 KB models load them and refuse them (exit 3).
  BENCHMARK.json leaves it out so that las and gen-ladder get longer runs
  within the benchmark's time budget; run it by hand to see the parser,
  validation and serializer at work, where las hides them.

In las and gen-ladder, dot and relax run once a pass, for their output
checks and the traced run's dot and transforms layers. BENCHMARK.json has no
dot or relax timing: those commands do their real work on model-io.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from roadmapper.parser import serialize
from roadmapper.testkit import ModelGenSpec, generate_database

LAS_PATH = "models/las.req"
MAX_ATOMS = ["--max-atoms", "64"]
# The commands of end-to-end metrics that take about 10-50 ms run this many
# times a pass, so that their medians rest on about forty samples a run, as
# many as the heavy commands' run time leaves room for. A las pass is
# shorter, and more of them fit in a run.
CHEAP_COPIES = 20
LAS_CHECK_COPIES = 8

# (tasks, spec seeds per half); each rung runs with and without quantities.
# tasks=3 is the oracle rung: its models fit testkit.BRUTE_ATOM_LIMIT.
LADDER = ((3, 8), (6, 8), (8, 6), (10, 3))
# check and dot run on this model; rank, roadmaps and relax on the first
# model of the tasks=EXTRA_TASKS quantities half that has the quality q1.
CHECK_MODEL = "t10q-0"
EXTRA_TASKS = 6

# (tasks, draws) of the model-io models: about 2.5, 14, 45 and 115 KB. The
# per-command medians fall on the middle size, which has several draws so
# that they do not hinge on one model.
IO_MODELS = ((100, 1), (400, 1), (1200, 3), (3000, 1))


@dataclass
class Model:
    name: str
    kind: str  # "las", "ladder" (recorded reference) or "io" (checked structurally)
    path: str
    text: str
    spec: ModelGenSpec | None = None
    canonical: str = ""


@dataclass
class Invocation:
    key: str  # "<model>/<label>", stable across seeds
    command: str  # the metric family: check, configs, rank, roadmaps, dot, relax
    argv: list
    model: Model
    expect_rc: int = 0


def shuffle_declarations(text: str, rng: random.Random) -> str:
    """The same model with its declarations in a seeded order."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("//")]
    body = [line for line in lines if not line.startswith("//")]
    rng.shuffle(body)
    return "\n".join(header + body) + "\n"


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / f"{name}.req"
    path.write_text(text)
    return str(path)


def _las() -> Model:
    return Model("las", "las", LAS_PATH, Path(LAS_PATH).read_text())


def _las_invocations(model: Model, enumerate_too: bool) -> list[Invocation]:
    p = model.path
    calls = []
    if enumerate_too:
        calls += [
            Invocation(f"{model.name}/configs", "configs", ["configs", p, *MAX_ATOMS], model),
            Invocation(
                f"{model.name}/rank", "rank",
                ["rank", p, "--rule", "r3", "--var", "rt", *MAX_ATOMS], model,
            ),
            Invocation(
                f"{model.name}/roadmaps", "roadmaps",
                ["roadmaps", p, "--var", "rt", "--floor", "40", "--maxdiff", "10",
                 "--maxlen", "2", *MAX_ATOMS], model,
            ),
        ]
    check = Invocation(f"{model.name}/check", "check", ["check", p], model)
    return calls + [check] * (LAS_CHECK_COPIES if enumerate_too else 1) + [
        Invocation(f"{model.name}/dot", "dot", ["dot", p], model),
        Invocation(
            f"{model.name}/relax-prob", "relax",
            ["relax", p, "--prob", "--target", "qt6", "--mean", "180",
             "--variance", "400", "--level", "0.9"], model,
        ),
        Invocation(
            f"{model.name}/relax-fuzzy", "relax",
            ["relax", p, "--fuzzy", "--target", "qt6", "--mu", "exp:0.5"], model,
        ),
    ]


def las(seed: int, workdir: Path) -> list[Invocation]:
    return _las_invocations(_las(), enumerate_too=True)


def ladder_specs():
    for tasks, count in LADDER:
        for quantities in (False, True):
            for spec_seed in range(count):
                name = f"t{tasks}{'q' if quantities else 'p'}-{spec_seed}"
                yield name, ModelGenSpec(
                    seed=spec_seed, tasks=tasks, include_quantities=quantities
                )


def gen_ladder(seed: int, workdir: Path) -> list[Invocation]:
    rng = random.Random(seed)
    calls = []
    extras = False
    for name, spec in ladder_specs():
        canonical = serialize(generate_database(spec))
        text = shuffle_declarations(canonical, rng)
        model = Model(name, "ladder", _write(workdir, name, text), text, spec, canonical)
        p = model.path
        calls.append(Invocation(f"{name}/configs", "configs", ["configs", p, *MAX_ATOMS], model))
        if name == CHECK_MODEL:
            calls += CHEAP_COPIES * [Invocation(f"{name}/check", "check", ["check", p], model)]
            calls.append(Invocation(f"{name}/dot", "dot", ["dot", p], model))
        has_q1 = re.search(r"^q q1\b", canonical, re.M) is not None
        if spec.tasks == EXTRA_TASKS and has_q1 and not extras:
            extras = True
            calls += CHEAP_COPIES * [
                Invocation(
                    f"{name}/rank", "rank",
                    ["rank", p, "--rule", "r3", "--var", "v1", *MAX_ATOMS], model,
                ),
                Invocation(
                    f"{name}/roadmaps", "roadmaps",
                    ["roadmaps", p, "--var", "v1", "--maxlen", "2", *MAX_ATOMS], model,
                ),
            ]
            calls.append(Invocation(
                f"{name}/relax-fuzzy", "relax",
                ["relax", p, "--fuzzy", "--target", "q1", "--mu", "exp:0.5"], model,
            ))
    return calls


def io_spec(seed: int, tasks: int, draw: int, attempt: int) -> ModelGenSpec:
    return ModelGenSpec(
        seed=seed * 1009 + tasks * 7 + draw * 100003 + attempt,
        tasks=tasks,
        assumptions=tasks // 10,
        goals=tasks // 4,
        conflict_density=1.0 / tasks,
        mandatory_ratio=0.1,
        preference_count=tasks // 20,
        include_quantities=True,
    )


def model_io(seed: int, workdir: Path) -> list[Invocation]:
    calls = []
    for tasks, draws in IO_MODELS:
        for draw in range(draws):
            # Draw until the model has the quality constraint q1 to relax;
            # the attempt sequence is fixed by the seed.
            for attempt in range(64):
                spec = io_spec(seed, tasks, draw, attempt)
                db = generate_database(spec)
                if "q1" in db.requirements:
                    break
            else:
                raise RuntimeError(f"no model with q1 for seed {seed}, tasks {tasks}")
            name = f"io{tasks}-{draw}"
            text = serialize(db)
            model = Model(name, "io", _write(workdir, name, text), text, spec)
            p = model.path
            calls += [
                Invocation(f"{name}/check", "check", ["check", p], model),
                Invocation(f"{name}/dot", "dot", ["dot", p], model),
                Invocation(
                    f"{name}/relax-prob", "relax",
                    ["relax", p, "--prob", "--target", "q1", "--mean", "10",
                     "--variance", "4", "--level", "0.9"], model,
                ),
                Invocation(
                    f"{name}/relax-fuzzy", "relax",
                    ["relax", p, "--fuzzy", "--target", "q1", "--mu", "exp:0.5"], model,
                ),
            ]
            if draws > 1:
                # Above --max-atoms, these commands load the model and refuse
                # it (exit 3): the load path a user of a large model waits on.
                calls += [
                    Invocation(f"{name}/configs", "configs", ["configs", p, *MAX_ATOMS], model, 3),
                    Invocation(
                        f"{name}/rank", "rank",
                        ["rank", p, "--rule", "r3", "--var", "v1", *MAX_ATOMS], model, 3,
                    ),
                    Invocation(
                        f"{name}/roadmaps", "roadmaps",
                        ["roadmaps", p, "--var", "v1", "--maxlen", "2", *MAX_ATOMS], model, 3,
                    ),
                ]
    return calls + _las_invocations(_las(), enumerate_too=False)


WORKLOADS = {"las": las, "gen-ladder": gen_ladder, "model-io": model_io}
