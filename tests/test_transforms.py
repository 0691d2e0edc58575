from __future__ import annotations

import hashlib
import math
import random

import pytest

from roadmapper.configuration import Configuration
from roadmapper.errors import (
    DanglingReferenceError,
    InvalidLevelError,
    MissingValueError,
    NoSatisfactionFnError,
    NotAComparisonError,
    WrongSortError,
)
from roadmapper.model import (
    Conflict,
    Distributed,
    ExpDecay,
    Implication,
    Modality,
    Normal,
    PlateauThenDecay,
    PreferenceKind,
    ProbCompare,
    QuantVar,
    SimpleQuant,
    condition_variables,
)
from roadmapper.operationalization import qualitative_operationalizations
from roadmapper.parser import load_file, serialize
from roadmapper.quanteval import sat_value, val
from roadmapper.roadmap import pairwise_value_preference
from roadmapper.testkit import ModelGenSpec, generate_database
from roadmapper.transforms import (
    add_satisfaction_product,
    expand_value_conflicts,
    expand_value_preferences,
    refine_softgoal,
    relax_fuzzy,
    relax_fuzzy_upper_bound,
    relax_probabilistic,
)

from conftest import LAS_PATH, parse_ok


def members(db):
    return [db[i] for i in db.member_ids()]


# --- value-conflict expansion --------------------------------------------------

def test_two_values_add_constraints_and_one_mandatory_conflict():
    db = parse_ok("t a: v = 3. k b: v = 7.")
    out, report = expand_value_conflicts(db)
    added = [out[i] for i in report.added_requirements]
    constraints = [r for r in added if isinstance(r.body, SimpleQuant)]
    conflicts = [r for r in added if isinstance(r.body, Conflict)]
    assert len(constraints) == 2
    assert {r.body.cond.rhs.value for r in constraints} == {3.0, 7.0}
    assert len(conflicts) == 1
    assert conflicts[0].modality is Modality.MANDATORY
    assert conflicts[0].body.antecedents == frozenset(r.id for r in constraints)


def test_single_value_is_left_alone():
    db = parse_ok("t a: v = 5.")
    out, report = expand_value_conflicts(db)
    assert not report.changed
    assert out == db


def test_three_values_give_three_pairwise_conflicts():
    db = parse_ok("t a: v = 1. t b: v = 2. k c: v = 3.")
    out, report = expand_value_conflicts(db)
    added = [out[i] for i in report.added_requirements]
    assert sum(isinstance(r.body, SimpleQuant) for r in added) == 3
    assert sum(isinstance(r.body, Conflict) for r in added) == 3


def test_value_conflict_expansion_is_idempotent():
    db = parse_ok("t a: v = 3. k b: v = 7.")
    once, first = expand_value_conflicts(db)
    twice, second = expand_value_conflicts(once)
    assert first.changed
    assert not second.changed
    assert twice == once


# --- satisfaction-driven preferences ----------------------------------------------

def test_preferences_follow_the_satisfaction_ordering():
    db = parse_ok("t a: v = 10. t b: v = 20. satfn v = exp(1.0).")
    out, report = expand_value_preferences(db, "v")
    strict = [p for p in report.added_preferences if p.kind is PreferenceKind.STRICT]
    assert len(strict) == 1
    pref = strict[0]
    assert out[pref.left].body.cond.rhs.value == 10.0
    assert out[pref.right].body.cond.rhs.value == 20.0
    conflicts = [
        out[i] for i in report.added_requirements if isinstance(out[i].body, Conflict)
    ]
    assert len(conflicts) == 1
    assert conflicts[0].modality is Modality.PLAIN


def test_single_value_adds_no_preferences():
    db = parse_ok("t a: v = 4. satfn v = exp(1.0).")
    out, report = expand_value_preferences(db, "v")
    assert not report.changed
    assert out == db


def test_tolerance_forced_indifference():
    eps = 1e-15
    db = parse_ok(f"t a: v = 2. t b: v = {2 + eps!r}. satfn v = exp(1.0).")
    _, report = expand_value_preferences(db, "v")
    kinds = {p.kind for p in report.added_preferences}
    assert kinds == {PreferenceKind.INDIFFERENT}


def test_preference_direction_matches_sat_values():
    rng = random.Random(3)
    for _ in range(20):
        x1, x2 = rng.sample(range(1, 30), 2)
        db = parse_ok(f"t a: v = {x1}. t b: v = {x2}. satfn v = exp(0.1).")
        out, report = expand_value_preferences(db, "v")
        fn = out.sat_fn("v")
        for pref in report.added_preferences:
            left_value = out[pref.left].body.cond.rhs.value
            right_value = out[pref.right].body.cond.rhs.value
            if pref.kind is PreferenceKind.STRICT:
                assert sat_value(fn, left_value) > sat_value(fn, right_value)
            else:
                assert math.isclose(
                    sat_value(fn, left_value), sat_value(fn, right_value),
                    rel_tol=1e-9, abs_tol=1e-12,
                )


def test_preference_expansion_requires_satfn():
    db = parse_ok("t a: v = 1. t b: v = 2.")
    with pytest.raises(NoSatisfactionFnError):
        expand_value_preferences(db, "v")


def test_preference_expansion_idempotent():
    db = parse_ok("t a: v = 1. t b: v = 3. satfn v = exp(1.0).")
    once, _ = expand_value_preferences(db, "v")
    twice, second = expand_value_preferences(once, "v")
    assert not second.changed
    assert twice == once


@pytest.mark.parametrize("seed", range(20))
def test_macros_idempotent_on_random_models(seed):
    db = generate_database(
        ModelGenSpec(seed=seed, tasks=4, goals=2, include_quantities=True)
    )
    once, _ = expand_value_conflicts(db)
    _, second = expand_value_conflicts(once)
    assert not second.changed
    if db.sat_fn("v1") is not None:
        once2, _ = expand_value_preferences(db, "v1")
        _, again = expand_value_preferences(once2, "v1")
        assert not again.changed


# --- probabilistic relaxation ---------------------------------------------------------

def test_probabilistic_relaxation_two_steps():
    db = parse_ok("q qc: t2 <= 110.")
    out, report = relax_probabilistic(db, "qc", Normal(60.0, 2025.0), 0.9)
    assert report.removed_requirements == ("qc",)
    assert "qc" not in out
    dist = [out[i] for i in report.added_requirements if i.startswith("@macro_dist")]
    prob = [out[i] for i in report.added_requirements if i.startswith("@macro_prob")]
    assert len(dist) == 1 and isinstance(dist[0].body.cond, Distributed)
    assert len(prob) == 1
    cond = prob[0].body.cond
    assert isinstance(cond, ProbCompare)
    assert cond.inner_op == "<=" and cond.outer_op == ">=" and cond.level.value == 0.9


def test_probabilistic_relaxation_preserves_modality_and_references():
    db = parse_ok('q qc !: t2 <= 110. s sg: ~ "fast". k ref: qc -> sg.')
    out, report = relax_probabilistic(db, "qc", Normal(60.0, 2025.0), 0.9)
    new_id = next(i for i in report.added_requirements if i.startswith("@macro_prob"))
    assert out[new_id].modality is Modality.MANDATORY
    assert out["ref"].body.antecedents == frozenset({new_id})


def test_relaxing_probcompare_is_rejected():
    db = parse_ok("q qc: P(e <= 0.10) = 0.8.")
    with pytest.raises(NotAComparisonError):
        relax_probabilistic(db, "qc", Normal(0.0, 1.0), 0.9)


def test_degenerate_level_rejected():
    db = parse_ok("q qc: t2 <= 110.")
    with pytest.raises(InvalidLevelError):
        relax_probabilistic(db, "qc", Normal(0.0, 1.0), 0.0)


def test_prob_relax_needs_quality_constraint():
    db = parse_ok("g p1.")
    with pytest.raises(WrongSortError):
        relax_probabilistic(db, "p1", Normal(0.0, 1.0), 0.9)


# --- fuzzy relaxation --------------------------------------------------------------------

def test_fuzzy_relaxation_removes_constraint_and_registers_mu():
    db = parse_ok("q qc: t2 <= 110.")
    out, report = relax_fuzzy(db, "qc", ExpDecay(1.0))
    assert "qc" not in out
    assert out.sat_fn("t2") == ExpDecay(1.0)
    assert report.added_sat_fns == ("t2",)


def test_fuzzy_relaxation_rejects_goals():
    db = parse_ok("g p1.")
    with pytest.raises(WrongSortError):
        relax_fuzzy(db, "p1", ExpDecay(1.0))


def test_fuzzy_relaxation_refuses_to_orphan_references():
    db = parse_ok('q qc: t2 <= 110. s sg: ~ "fast". k ref: qc -> sg.')
    with pytest.raises(DanglingReferenceError):
        relax_fuzzy(db, "qc", ExpDecay(1.0))


def test_fuzzy_relax_then_expand_prefers_lower_value():
    db = parse_ok("q qc: v <= 10. t a: v = 1. t b: v = 3.")
    db, _ = relax_fuzzy(db, "qc", ExpDecay(1.0))
    out, report = expand_value_preferences(db, "v")
    strict = [p for p in report.added_preferences if p.kind is PreferenceKind.STRICT]
    assert len(strict) == 1
    assert out[strict[0].left].body.cond.rhs.value == 1.0


# --- fuzzy upper bound -----------------------------------------------------------------------

def test_fuzzy_upper_bound_registers_plateau():
    db = parse_ok("")
    out, _ = relax_fuzzy_upper_bound(db, "v", 21600.0)
    assert out.sat_fn("v") == PlateauThenDecay(21600.0, 32400.0, 1.0)


def test_fuzzy_upper_bound_zero_bound():
    db = parse_ok("")
    out, _ = relax_fuzzy_upper_bound(db, "v", 0.0)
    fn = out.sat_fn("v")
    assert fn.plateau_end == 0.0 and fn.zero_at > 0.0


def test_fuzzy_upper_bound_drives_preferences():
    db = parse_ok("t a: v = 18000. t b: v = 25200.")  # 5hrs vs 7hrs
    db, _ = relax_fuzzy_upper_bound(db, "v", 21600.0)
    out, report = expand_value_preferences(db, "v")
    strict = [p for p in report.added_preferences if p.kind is PreferenceKind.STRICT]
    assert len(strict) == 1
    assert out[strict[0].left].body.cond.rhs.value == 18000.0


# --- satisfaction product ------------------------------------------------------------------------

def test_satisfaction_product_binds_output_variable():
    ln2, ln08 = -math.log(0.5), -math.log(0.8)
    db = parse_ok(
        f"t a: v1 = 1. t b: v2 = 1. satfn v1 = exp({ln2!r}). satfn v2 = exp({ln08!r})."
    )
    out, _ = add_satisfaction_product(db, "v1", "v2", "v3")
    values = val(members(out), "v3")
    assert len(values) == 1
    assert math.isclose(next(iter(values)), 0.4, rel_tol=1e-9)


def test_satisfaction_product_identity():
    db = parse_ok(
        "t a: v1 = 0. t b: v2 = 2. satfn v1 = exp(1.0). satfn v2 = exp(0.25)."
    )
    out, _ = add_satisfaction_product(db, "v1", "v2", "v3")
    values = val(members(out), "v3")
    expected = sat_value(ExpDecay(0.25), 2.0)
    assert math.isclose(next(iter(values)), expected, rel_tol=1e-9)


def test_satisfaction_product_missing_satfn():
    db = parse_ok("t a: v1 = 1. t b: v2 = 1. satfn v1 = exp(1.0).")
    with pytest.raises(NoSatisfactionFnError):
        add_satisfaction_product(db, "v1", "v2", "v3")


def test_satisfaction_product_needs_values():
    db = parse_ok("satfn v1 = exp(1.0). satfn v2 = exp(1.0).")
    with pytest.raises(MissingValueError):
        add_satisfaction_product(db, "v1", "v2", "v3")


# --- softgoal refinement -----------------------------------------------------------------------------

def test_refine_softgoal_adds_implication():
    db = parse_ok('s sg: ~ "quick arrival". q qc: t7 <= 900.')
    out, report = refine_softgoal(db, "sg", "qc")
    assert len(report.added_requirements) == 1
    imp = out[report.added_requirements[0]]
    assert isinstance(imp.body, Implication)
    assert imp.body.antecedents == frozenset({"qc"}) and imp.body.consequent == "sg"


def test_refine_softgoal_self_reference_rejected():
    db = parse_ok('s sg: ~ "quick arrival".')
    with pytest.raises(WrongSortError):
        refine_softgoal(db, "sg", "sg")


def test_two_refinements_give_two_operationalizations():
    db = parse_ok(
        's sg: ~ "quick". q qa: t7 <= 900. q qb: t8 <= 60. '
        "k kta: t7 = 700. k ktb: t8 = 30."
    )
    db, _ = refine_softgoal(db, "sg", "qa")
    db, _ = refine_softgoal(db, "sg", "qb")
    ops = qualitative_operationalizations("sg", db)
    assert len(ops) == 2


def test_refine_softgoal_idempotent():
    db = parse_ok('s sg: ~ "quick arrival". q qc: t7 <= 900.')
    once, _ = refine_softgoal(db, "sg", "qc")
    twice, second = refine_softgoal(once, "sg", "qc")
    assert not second.changed
    assert twice == once


# --- pinned rewrite behaviour ------------------------------------------------------------------

# Small models for the reuse rule: a body already present under a user id, two
# ids with one body, a conflict whose modality a mandatory request refuses, an
# existing distribution, and existing assumptions and preferences.
EDGE_MODELS = {
    "edge-reuse": (
        "t a: v = 3. k b: v = 7. q c2: v = 3. q c1: v = 3. k d ?: v = 7. "
        "q qd: v = 7. k e ?: c1 & qd -> false. k kd: w ~ Normal(5, 4). "
        "q qw: w <= 7. q qw2 !: w >= 2. s sg: ~ \"fast\". k r: qw -> sg."
    ),
    "edge-prefs": (
        "t a: v = 1. t b: v = 3. t c: v = 5. k ka: v = 1. k kb: v = 3. "
        "k kc: ka & kb -> false. pref: ka > kb. satfn v = exp(0.5). "
        "t x: u = 2. satfn u = pwl((0.0, 0.6), (100.0, 0.6))."
    ),
    "edge-chain": (
        "k k1: v1 = 2. k k2: v2 = v1 * 3. t a: v3 = 4. t b: v3 = 4.5. "
        "q qv: v2 <= 10. satfn v1 = exp(0.5). satfn v2 = exp(0.25)."
    ),
}


def _rewrite_transcript(db) -> str:
    """Every public rewrite over a spread of arguments, success and error
    alike: the serialized result and report fields, or `type: message`."""
    lines: list[str] = []

    def run(label, fn, *args):
        try:
            result = fn(*args)
        except Exception as exc:  # every error is part of the pinned behaviour
            lines.append(f"{label} -> {type(exc).__name__}: {exc}")
            return None
        if isinstance(result, tuple):
            out, report = result
            prefs = [(p.kind.value, p.left, p.right) for p in report.added_preferences]
            lines.append(
                f"{label} -> {report.added_requirements} {report.removed_requirements} "
                f"{prefs} {report.added_sat_fns} {report.iterations}"
            )
            lines.append(serialize(out))
            return out
        lines.append(f"{label} -> {result!r}")
        return result

    ids = db.ids() + ["nope"]
    quantities = [r.body.cond for r in db if isinstance(r.body, SimpleQuant)]
    variables = sorted({v for c in quantities for v in condition_variables(c)} | set(db.sat_fns))
    member_reqs = members(db)
    expanded = run("conflicts", expand_value_conflicts, db)
    if expanded is not None:
        run("conflicts again", expand_value_conflicts, expanded)
    fuzzy = db
    for var in variables:
        values = sorted(val(member_reqs, var))
        run(f"prefs {var}", expand_value_preferences, db, var)
        bound = values[0] if values else 1.0
        upper = run(f"upper {var}", relax_fuzzy_upper_bound, expanded or db, var, bound)
        once = run(f"prefs upper {var}", expand_value_preferences, upper, var)
        if once is not None:
            run(f"prefs upper {var} again", expand_value_preferences, once, var)
        if var not in fuzzy.sat_fns:
            fuzzy, _ = relax_fuzzy_upper_bound(fuzzy, var, values[-1] if values else 1.0)
    outer_ops = (">=", ">", "=", "<=", "<")
    for i, req_id in enumerate(ids):
        dist = Normal(5.0, 4.0) if i % 2 else Normal(50.0, 100.0)
        run(f"prob {req_id}", relax_probabilistic, db, req_id, dist, 0.9, outer_ops[i % 5])
        run(f"fuzzy {req_id}", relax_fuzzy, db, req_id, ExpDecay(0.5))
    bound = next((r.id for r in db if r.sort.value == "q"), ids[0])
    run("prob level", relax_probabilistic, db, bound, Normal(5.0, 4.0), 0.0)
    run("prob outer", relax_probabilistic, db, bound, Normal(5.0, 4.0), 0.5, "!=")
    run("product bare", add_satisfaction_product, db, "v1", "v2", "out")
    for a in variables:
        for b in variables:
            out = run(f"product {a} {b}", add_satisfaction_product, fuzzy, a, QuantVar(b), a)
            if out is not None:
                run(f"product {a} {b} again", add_satisfaction_product, out, a, b, a)
    softgoals = [r.id for r in db if r.sort.value == "s"] + ids[:1]
    for sg in softgoals:
        for req_id in ids:
            out = run(f"refine {sg} {req_id}", refine_softgoal, db, sg, req_id)
            if out is not None:
                run(f"refine {sg} {req_id} again", refine_softgoal, out, sg, req_id)
    for var in variables:
        carriers = [r.id for r in member_reqs if val([r], var)][:4]
        sets = [frozenset({c}) for c in carriers] + [frozenset(carriers), frozenset()]
        for i, s1 in enumerate(sets):
            for s2 in sets[i + 1 :]:
                run(
                    f"pairwise {var} {sorted(s1)} {sorted(s2)}",
                    pairwise_value_preference,
                    fuzzy,
                    Configuration("s1", s1),
                    Configuration("s2", s2),
                    var,
                )
    return "\n".join(lines)


def _pinned_models():
    yield "las", load_file(LAS_PATH).database
    for name, text in EDGE_MODELS.items():
        yield name, parse_ok(text)
    for seed in range(20):
        spec = ModelGenSpec(seed=seed, tasks=4 + seed % 4, include_quantities=seed % 5 != 4)
        yield f"gen-{seed}", generate_database(spec)


# The first 16 hex digits of the sha256 of each model's transcript: a change to
# any id, byte, error or report field a rewrite produces changes one of them.
REWRITE_DIGESTS = {
    "las": "bf1d413e7b89667c",
    "edge-reuse": "cf664248e5536689",
    "edge-prefs": "b5effefa286a0526",
    "edge-chain": "468c03a492762722",
    "gen-0": "7ef0c42652c1f19e",
    "gen-1": "ef208b22a542ffea",
    "gen-2": "99b12621c47a5abf",
    "gen-3": "2add98dc70cffb31",
    "gen-4": "d6bf54173347b048",
    "gen-5": "203b03601fc4ae18",
    "gen-6": "c1a7ae3c0455dadd",
    "gen-7": "947b91b422920d0c",
    "gen-8": "abff840931550d31",
    "gen-9": "56434dded1822764",
    "gen-10": "bd7b0e4e147982c7",
    "gen-11": "9298712e243c7de3",
    "gen-12": "544de879d5c286f3",
    "gen-13": "9df17333a174545e",
    "gen-14": "15140c90e7aa55f4",
    "gen-15": "957adc00c2b2b18f",
    "gen-16": "1c4876875742e127",
    "gen-17": "b718c7800f4284bb",
    "gen-18": "ad95b553bd5736c6",
    "gen-19": "99714f2c82787339",
}


def test_rewrites_match_pinned_digests():
    digests = {
        name: hashlib.sha256(_rewrite_transcript(db).encode()).hexdigest()[:16]
        for name, db in _pinned_models()
    }
    assert digests == REWRITE_DIGESTS
