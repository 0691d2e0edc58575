"""Independent brute-force oracles and random-model generation.

Test support, not public API. The oracles deliberately reimplement the
definitions with naive scans and share no logic code with the engine modules
they check; agreement between the two is the verification strategy.
"""

from __future__ import annotations

import itertools
import math
import random
import re

from ._record import record
from .errors import GenerationError, TooLargeError
from .model import (
    BinOp,
    Compare,
    Conflict,
    Const,
    Distributed,
    ExpDecay,
    G,
    Implication,
    K,
    MEMBER_SORTS,
    Modality,
    Normal,
    Preference,
    PreferenceKind,
    PropVar,
    Q,
    QuantVar,
    Requirement,
    RequirementsDatabase,
    SimpleProp,
    SimpleQuant,
    T,
    Var,
    build_database,
)

BRUTE_ATOM_LIMIT = 12
ENTAILMENT_ATOM_LIMIT = 10


# --- naive mixed satisfaction (independent of the engine's implementation) -------

def _naive_eval(expr, env):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.var.name]
    a = _naive_eval(expr.left, env)
    b = _naive_eval(expr.right, env)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    if expr.op == "/":
        return a / b
    return math.pow(a, b)


def _naive_vars(expr):
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Var):
        return {expr.var.name}
    return _naive_vars(expr.left) | _naive_vars(expr.right)


def _naive_compare(a, op, b):
    if op == "=":
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    if op == "!=":
        return not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    if op == ">":
        return a > b
    if op == "<":
        return a < b
    if op == ">=":
        return a >= b
    return a <= b


def naive_satisfaction(members: frozenset[str], db: RequirementsDatabase):
    """(satisfied ids, bottom) by plain re-derivation from the definitions."""
    satisfied = set(members)
    while True:
        # values assigned by currently satisfied k/t '=' requirements
        values: dict[str, set[float]] = {}
        equations = []
        for req_id in sorted(satisfied):
            req = db[req_id]
            if req.sort in MEMBER_SORTS and isinstance(req.body, SimpleQuant):
                cond = req.body.cond
                if isinstance(cond, Compare) and cond.op == "=" and isinstance(cond.lhs, Var):
                    rhs_vars = _naive_vars(cond.rhs)
                    if rhs_vars:
                        equations.append((cond.lhs.var.name, cond.rhs, rhs_vars))
                    else:
                        values.setdefault(cond.lhs.var.name, set()).add(
                            _naive_eval(cond.rhs, {})
                        )
        moved = True
        while moved:
            moved = False
            for lhs, rhs, rhs_vars in equations:
                if all(len(values.get(w, ())) == 1 for w in rhs_vars):
                    env = {w: next(iter(values[w])) for w in rhs_vars}
                    out = _naive_eval(rhs, env)
                    if out not in values.setdefault(lhs, set()):
                        values[lhs].add(out)
                        moved = True
        dists: dict[str, list] = {}
        for req_id in sorted(satisfied):
            req = db[req_id]
            if req.sort in MEMBER_SORTS and isinstance(req.body, SimpleQuant):
                if isinstance(req.body.cond, Distributed):
                    dists.setdefault(req.body.cond.var.name, []).append(req.body.cond.dist)

        grew = False
        for req_id in sorted(members):
            body = db[req_id].body
            if isinstance(body, Implication):
                if body.consequent not in satisfied and body.antecedents <= satisfied:
                    satisfied.add(body.consequent)
                    grew = True
        for req in sorted(db, key=lambda r: r.id):
            if req.id in satisfied or not isinstance(req.body, SimpleQuant):
                continue
            if req.sort is T:  # tasks are satisfied by execution, not by values
                continue
            cond = req.body.cond
            if isinstance(cond, Compare):
                needed = sorted(_naive_vars(cond.lhs) | _naive_vars(cond.rhs))
                if any(not values.get(v) for v in needed):
                    continue
                for combo in itertools.product(*(sorted(values[v]) for v in needed)):
                    env = dict(zip(needed, combo))
                    try:
                        ok = _naive_compare(
                            _naive_eval(cond.lhs, env), cond.op, _naive_eval(cond.rhs, env)
                        )
                    except (ZeroDivisionError, OverflowError, ValueError):
                        continue
                    if ok:
                        satisfied.add(req.id)
                        grew = True
                        break
            elif not isinstance(cond, Distributed):
                needed = sorted(
                    (_naive_vars(cond.bound) | _naive_vars(cond.level)) - {cond.var.name}
                )
                if cond.var.name in _naive_vars(cond.bound) | _naive_vars(cond.level):
                    continue
                if any(not values.get(v) for v in needed):
                    continue
                hit = False
                for dist in dists.get(cond.var.name, ()):
                    for combo in itertools.product(*(sorted(values[v]) for v in needed)):
                        env = dict(zip(needed, combo))
                        z = (_naive_eval(cond.bound, env) - dist.mean) / math.sqrt(
                            dist.variance
                        )
                        below = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
                        p = below if cond.inner_op in ("<=", "<") else 1.0 - below
                        if _naive_compare(p, cond.outer_op, _naive_eval(cond.level, env)):
                            satisfied.add(req.id)
                            grew = True
                            hit = True
                            break
                    if hit:
                        break
        if not grew:
            break
    bottom = any(
        isinstance(db[m].body, Conflict) and db[m].body.antecedents <= satisfied
        for m in members
    )
    return frozenset(satisfied), bottom


# --- brute-force configuration oracle ----------------------------------------------

def brute_configurations(db: RequirementsDatabase) -> list[frozenset[str]]:
    """Filter all member subsets through the six configuration properties.

    Clause-by-clause and quadratic on purpose; accepts at most
    BRUTE_ATOM_LIMIT k/t requirements. Apply value-conflict expansion first
    when comparing against the enumeration engine.
    """
    members = db.member_ids()
    if len(members) > BRUTE_ATOM_LIMIT:
        raise TooLargeError(f"{len(members)} k/t requirements; oracle cap is {BRUTE_ATOM_LIMIT}")
    mandatory = frozenset(
        r.id for r in db.of_sort(*MEMBER_SORTS) if r.modality is Modality.MANDATORY
    )
    optionals = frozenset(
        r.id for r in db.of_sort(*MEMBER_SORTS) if r.modality is Modality.OPTIONAL
    )
    qual_targets = [
        r.id
        for r in sorted(db, key=lambda r: r.id)
        if r.modality is Modality.MANDATORY and r.sort.value in ("g", "s")
    ]
    quant_targets = [
        r.id
        for r in sorted(db, key=lambda r: r.id)
        if r.modality is Modality.MANDATORY and r.sort.value == "q"
    ]

    family_14 = []
    for size in range(len(members) + 1):
        for combo in itertools.combinations(members, size):
            candidate = frozenset(combo)
            if not mandatory <= candidate:
                continue
            satisfied, bottom = naive_satisfaction(candidate, db)
            if bottom:
                continue
            if any(t not in satisfied for t in qual_targets):
                continue
            if any(t not in satisfied for t in quant_targets):
                continue
            family_14.append(candidate)

    family_15 = [
        s
        for s in family_14
        if not any(
            s < other and (other - s) and (other - s) <= optionals
            for other in family_14
        )
    ]
    configurations = [
        s for s in family_15 if not any(other < s for other in family_15)
    ]
    return sorted(configurations, key=lambda s: tuple(sorted(s)))


def brute_operationalizations(
    target: str, db: RequirementsDatabase
) -> list[frozenset[str]]:
    """Minimal consistent member sets (including the mandatory k/t set) whose
    naive satisfaction covers the target."""
    members = db.member_ids()
    if len(members) > BRUTE_ATOM_LIMIT:
        raise TooLargeError(f"{len(members)} k/t requirements; oracle cap is {BRUTE_ATOM_LIMIT}")
    mandatory = frozenset(
        r.id for r in db.of_sort(*MEMBER_SORTS) if r.modality is Modality.MANDATORY
    )
    free = [m for m in members if m not in mandatory]
    valid = []
    for size in range(len(free) + 1):
        for combo in itertools.combinations(free, size):
            candidate = mandatory | frozenset(combo)
            satisfied, bottom = naive_satisfaction(candidate, db)
            if not bottom and target in satisfied:
                valid.append(candidate)
    minimal = [s for s in valid if not any(other < s for other in valid)]
    return sorted(minimal, key=lambda s: tuple(sorted(s)))


# --- truth-table entailment oracle ---------------------------------------------------

def brute_entailment(
    pi, db: RequirementsDatabase | None = None
) -> frozenset[str]:
    """Atoms classically entailed by the premises, by exhaustive valuation.

    Premises are unit facts plus implications read as material conditionals;
    conflict premises are rejected. At most ENTAILMENT_ATOM_LIMIT atoms.
    """
    premises = []
    for item in pi:
        premises.append(item if isinstance(item, Requirement) else db[item])
    atoms: set[str] = set()
    facts: list[str] = []
    clauses: list[tuple[frozenset[str], str]] = []
    for req in premises:
        if isinstance(req.body, Conflict):
            raise ValueError("the truth-table oracle needs conflict-free premises")
        if isinstance(req.body, Implication):
            clauses.append((req.body.antecedents, req.body.consequent))
            atoms |= req.body.antecedents | {req.body.consequent}
        else:
            facts.append(req.id)
            atoms.add(req.id)
    ordered = sorted(atoms)
    if len(ordered) > ENTAILMENT_ATOM_LIMIT:
        raise TooLargeError(f"{len(ordered)} atoms; oracle cap is {ENTAILMENT_ATOM_LIMIT}")
    entailed = set(ordered)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        valuation = dict(zip(ordered, bits))
        if not all(valuation[f] for f in facts):
            continue
        if not all(
            valuation[c] or not all(valuation[a] for a in ants) for ants, c in clauses
        ):
            continue
        entailed &= {a for a in ordered if valuation[a]}
        if not entailed:
            break
    return frozenset(entailed)


# --- numeric oracles ---------------------------------------------------------------

def normal_cdf_by_integration(x: float, mean: float, sd: float) -> float:
    """Normal CDF via Simpson integration of the density (no erf)."""
    lo = mean - 12.0 * sd
    if x <= lo:
        return 0.0
    hi = min(x, mean + 12.0 * sd)
    panels = max(400, int(200 * (hi - lo) / sd))
    if panels % 2:
        panels += 1
    h = (hi - lo) / panels

    def density(t: float) -> float:
        z = (t - mean) / sd
        return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))

    total = density(lo) + density(hi)
    for i in range(1, panels):
        total += density(lo + i * h) * (4 if i % 2 else 2)
    integral = total * h / 3.0
    if x > mean + 12.0 * sd:
        return 1.0
    return min(1.0, max(0.0, integral))


def quantile_bisect(dist: Normal, p: float, tol: float = 1e-4) -> float:
    """Inverse CDF by bisection on the integration-based CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile defined for p in (0, 1)")
    sd = math.sqrt(dist.variance)
    lo, hi = dist.mean - 12.0 * sd, dist.mean + 12.0 * sd
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if normal_cdf_by_integration(mid, dist.mean, sd) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def reference_eval(expr, assignment: dict[str, float]) -> float:
    """Independent tree-walking evaluator for expression cross-checks."""
    return _naive_eval(expr, assignment)


# --- random models --------------------------------------------------------------------

@record(frozen=True)
class ModelGenSpec:
    """Knobs for the random-model generator; same seed, same database."""

    seed: int
    tasks: int = 5
    assumptions: int = 2
    goals: int = 3
    refinements_per_goal: int = 2
    conflict_density: float = 0.3
    optional_ratio: float = 0.25
    mandatory_ratio: float = 0.4
    preference_count: int = 2
    include_quantities: bool = False


GENERATION_ATTEMPTS = 64


def generate_database(spec: ModelGenSpec) -> RequirementsDatabase:
    """A random well-formed database; inconsistent mandatory draws are
    retried, and GenerationError is raised when every attempt fails."""
    for attempt in range(GENERATION_ATTEMPTS):
        rng = random.Random(spec.seed * 1000003 + attempt)
        try:
            return _generate_once(rng, spec)
        except Exception:
            continue
    raise GenerationError(
        f"could not generate a valid database for seed {spec.seed} with {spec.tasks} "
        f"tasks in {GENERATION_ATTEMPTS} attempts"
    )


def _generate_once(rng: random.Random, spec: ModelGenSpec) -> RequirementsDatabase:
    reqs: list[Requirement] = []

    def modality(mandatory_ok: bool = True) -> Modality:
        roll = rng.random()
        if mandatory_ok and roll < spec.mandatory_ratio * 0.3:
            return Modality.MANDATORY
        if roll < spec.mandatory_ratio * 0.3 + spec.optional_ratio:
            return Modality.OPTIONAL
        return Modality.PLAIN

    task_ids = [f"u{i + 1}" for i in range(spec.tasks)]
    for tid in task_ids:
        reqs.append(Requirement(tid, SimpleProp(T, PropVar(tid)), modality()))
    assumption_ids = [f"d{i + 1}" for i in range(spec.assumptions)]
    for aid in assumption_ids:
        reqs.append(Requirement(aid, SimpleProp(K, PropVar(aid)), modality()))
    goal_ids = [f"p{i + 1}" for i in range(spec.goals)]
    for i, gid in enumerate(goal_ids):
        mand = rng.random() < spec.mandatory_ratio
        reqs.append(
            Requirement(
                gid,
                SimpleProp(G, PropVar(gid)),
                Modality.MANDATORY if mand else Modality.PLAIN,
            )
        )

    atoms = task_ids + assumption_ids
    imp_n = 0
    for i, gid in enumerate(goal_ids):
        ways = rng.randint(1, max(1, spec.refinements_per_goal))
        for _ in range(ways):
            pool = atoms + goal_ids[:i]  # earlier goals only, keeping chains acyclic
            size = rng.randint(1, min(2, len(pool)))
            antecedents = frozenset(rng.sample(pool, size))
            imp_n += 1
            roll = rng.random()
            imp_mod = (
                Modality.OPTIONAL
                if roll < 0.1
                else Modality.MANDATORY if roll < 0.2 else Modality.PLAIN
            )
            reqs.append(
                Requirement(f"i{imp_n}", Implication(antecedents, gid), imp_mod)
            )

    conflict_n = 0
    for a, b in itertools.combinations(task_ids, 2):
        if rng.random() < spec.conflict_density:
            conflict_n += 1
            roll = rng.random()
            conflict_mod = (
                Modality.MANDATORY
                if roll < 0.6
                else Modality.OPTIONAL if roll < 0.75 else Modality.PLAIN
            )
            reqs.append(
                Requirement(f"c{conflict_n}", Conflict(frozenset({a, b})), conflict_mod)
            )

    sat_fns = {}
    if spec.include_quantities:
        v1, v2 = "v1", "v2"
        x1 = float(rng.randint(1, 9))
        x2 = float(rng.randint(1, 9))
        carriers = rng.sample(task_ids, min(2, len(task_ids)))
        for carrier, value in zip(carriers, (x1, x2)):
            reqs = [r for r in reqs if r.id != carrier]
            reqs.append(
                Requirement(
                    carrier,
                    SimpleQuant(T, Compare(Var(QuantVar(v1)), "=", Const(value))),
                    Modality.PLAIN,
                )
            )
        reqs.append(
            Requirement(
                "e1",
                SimpleQuant(
                    K,
                    Compare(
                        Var(QuantVar(v2)), "=", BinOp("*", Var(QuantVar(v1)), Const(2.0))
                    ),
                ),
                Modality.PLAIN,
            )
        )
        if rng.random() < 0.5:
            bound = max(x1, x2) * 2.0
            reqs.append(
                Requirement(
                    "q1",
                    SimpleQuant(Q, Compare(Var(QuantVar(v2)), "<=", Const(bound))),
                    Modality.MANDATORY,
                )
            )
        if rng.random() < 0.5:
            sat_fns[v1] = ExpDecay(0.5)

    simple_ids = task_ids + assumption_ids + goal_ids
    preferences = set()
    for _ in range(spec.preference_count):
        left, right = rng.sample(simple_ids, 2)
        kind = rng.choice(list(PreferenceKind))
        preferences.add(Preference(kind, left, right))

    return build_database(reqs, preferences, sat_fns)


# --- DOT structure checks ----------------------------------------------------------

_DOT_NODE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*\[[^\]]*\];$')
_DOT_EDGE = re.compile(
    r'^\s*"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)"\s*(\[[^\]]*\])?;$'
)


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Minimal DOT reader: returns (node ids, edges); raises on malformed input."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("digraph"):
        raise ValueError("not a digraph")
    if lines[-1].strip() != "}":
        raise ValueError("missing closing brace")
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    for line in lines[1:-1]:
        stripped = line.strip()
        if stripped in ("rankdir=BT;", "rankdir=LR;"):
            continue
        edge = _DOT_EDGE.match(line)
        if edge:
            edges.append((edge.group(1), edge.group(2)))
            continue
        node = _DOT_NODE.match(line)
        if node:
            nodes.append(node.group(1))
            continue
        raise ValueError(f"unrecognized DOT statement: {stripped!r}")
    return nodes, edges
