from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmapper.configuration import enumerate_configurations
from roadmapper.errors import (
    DanglingReferenceError,
    DivisionByZeroError,
    RefinementCycleError,
    RoadmapperError,
    ValOverflowError,
    WrongSortError,
)
from roadmapper.inference import closure as symbolic_closure
from roadmapper.model import (
    G,
    Q,
    S,
    Conflict,
    Implication,
    Requirement,
    RequirementsDatabase,
    SimpleQuant,
)
from roadmapper.operationalization import (
    _MEMO_LIMIT,
    DEFAULT_SEARCH_LIMIT,
    SatisfactionClosure,
    _minimal_masks,
    _resolve_ids,
    is_admissible,
    qualitative_operationalizations,
    quantitative_operationalizations,
    satisfaction_closure,
)
from roadmapper.parser import parse
from roadmapper.quanteval import eval_condition, val
from roadmapper.testkit import (
    ModelGenSpec,
    brute_operationalizations,
    generate_database,
    naive_satisfaction,
)
from roadmapper.transforms import expand_value_conflicts

from conftest import fired_conflicts, parse_ok


def test_admissible_vacuous_on_empty_mandatory_set():
    db = parse_ok("t a. t b.")
    assert is_admissible([], db)


def test_admissible_requires_mandatory_members():
    db = parse_ok("t a !.")
    assert is_admissible(["a"], db)
    assert not is_admissible([], db)


def test_admissible_rejects_conflicting_sets():
    db = parse_ok("t u2. t u4. k c1: u2 & u4 -> false.")
    assert not is_admissible(["u2", "u4", "c1"], db)


def test_single_operationalization_with_mandatory_union():
    db = parse_ok("t u1. g p2. k imp1: u1 -> p2. t m1 !.")
    ops = qualitative_operationalizations("p2", db)
    assert len(ops) == 1
    assert ops[0].support == frozenset({"u1", "imp1", "m1"})
    assert ops[0].kind == "qualitative"


def test_two_alternative_operationalizations():
    db = parse_ok(
        "t u2. t u3. t u4. g p3. k op_a: u2 & u3 -> p3. k op_b: u4 -> p3."
    )
    ops = qualitative_operationalizations("p3", db)
    supports = {tuple(sorted(op.support)) for op in ops}
    assert supports == {("op_a", "u2", "u3"), ("op_b", "u4")}


def test_goal_without_refinement_has_no_operationalizations():
    db = parse_ok("g lonely. t a.")
    assert qualitative_operationalizations("lonely", db) == ()


def test_qualitative_rejects_tasks():
    db = parse_ok("t a.")
    with pytest.raises(WrongSortError):
        qualitative_operationalizations("a", db)


def test_quantitative_rejects_propositional_targets():
    db = parse_ok("g p1.")
    with pytest.raises(WrongSortError):
        quantitative_operationalizations("p1", db)


def test_quantitative_operationalization_through_refinement():
    db = parse_ok(
        "t w1: t1 = 30. t w2: t2 = 60. t w3: t3 = 45. t w4: t4 = 45. "
        "k e6: t6 = t1 + t2 + t3 + t4. q qc: t6 <= 200."
    )
    ops = quantitative_operationalizations("qc", db)
    assert [sorted(op.support) for op in ops] == [["e6", "w1", "w2", "w3", "w4"]]
    assert ops[0].kind == "quantitative"


def test_quantitative_unsatisfiable_bound():
    db = parse_ok(
        "t w1: t1 = 30. t w2: t2 = 60. t w3: t3 = 45. t w4: t4 = 45. "
        "k e6: t6 = t1 + t2 + t3 + t4. q qc: t6 <= 100."
    )
    assert quantitative_operationalizations("qc", db) == ()


def test_quantitative_through_declared_effect():
    db = parse_ok("t u7. q q7: P(e <= 0.10) = 0.8. k eff7: u7 -> q7.")
    ops = quantitative_operationalizations("q7", db)
    assert len(ops) == 1
    assert "u7" in ops[0].support


def test_quantitative_no_assignment_anywhere():
    db = parse_ok("q qc: v = 1. t a.")
    assert quantitative_operationalizations("qc", db) == ()


def test_assignment_is_its_own_operationalization():
    db = parse_ok("t w: v = 3.")
    ops = quantitative_operationalizations("w", db)
    assert [sorted(op.support) for op in ops] == [["w"]]


def test_supports_are_admissible_and_minimal(las_db):
    from roadmapper.model import G, S

    mandatory = set(las_db.mandatory_ids())
    mandatory_members = {
        i for i in mandatory if las_db[i].sort.value in ("k", "t")
    }
    for target in las_db.mandatory_ids(G, S):
        for op in qualitative_operationalizations(target, las_db):
            assert is_admissible(op.support, las_db)
            for member in sorted(op.support - mandatory_members):
                smaller = satisfaction_closure(op.support - {member}, las_db)
                assert target not in smaller.satisfied


def test_quantitative_results_reverify_under_eval_condition():
    db = parse_ok(
        "t w1: t1 = 30. t w2: t2 = 60. k e6: t6 = t1 + t2. q qc: t6 <= 100."
    )
    for op in quantitative_operationalizations("qc", db):
        reqs = [db[i] for i in sorted(op.support)]
        assignment = {
            name: next(iter(values))
            for name, values in (
                (var, val(reqs, var)) for var in ("t1", "t2", "t6")
            )
        }
        assert eval_condition(db["qc"].body.cond, assignment, {})


def test_softgoal_operationalizable_through_refinement_implication():
    db = parse_ok(
        's sg: ~ "fast arrival". q qc: t7 <= 900. k ref: qc -> sg. '
        "k kt: t7 = 700."
    )
    ops = qualitative_operationalizations("sg", db)
    assert [sorted(op.support) for op in ops] == [["kt", "ref"]]


@pytest.mark.parametrize("seed", range(25))
def test_matches_brute_force_scan(seed):
    rng = random.Random(seed)
    db = generate_database(
        ModelGenSpec(
            seed=seed,
            tasks=rng.randint(2, 4),
            assumptions=rng.randint(0, 1),
            goals=rng.randint(1, 2),
            conflict_density=rng.choice([0.0, 0.3]),
        )
    )
    if len(db.member_ids()) > 12:
        pytest.skip("generated model larger than the oracle cap")
    goals = [r.id for r in db if r.sort.value == "g"]
    for goal in goals:
        engine = sorted(
            tuple(sorted(op.support))
            for op in qualitative_operationalizations(goal, db)
        )
        oracle = sorted(tuple(sorted(s)) for s in brute_operationalizations(goal, db))
        assert engine == oracle, f"seed={seed} goal={goal}"


def test_satisfaction_closure_reports_origins():
    db = parse_ok("t u1. g p2. k imp1: u1 -> p2. q qc: v <= 5. t w: v = 3.")
    sc = satisfaction_closure(["u1", "imp1", "w"], db)
    assert sc.origin["u1"] == "member"
    assert sc.origin["p2"] == "inferred"
    assert sc.origin["qc"] == "numeric"
    assert sc.values["v"] == frozenset({3.0})


def test_origin_is_in_id_order_and_names_the_first_route():
    sc = satisfaction_closure(
        ["a", "s", "h", "i"],
        parse_ok("t a: x = 1. q qc: x >= 1. g p. t s. k h: p -> qc. k i: s -> p."),
    )
    # The round that infers p meets qc numerically before h can fire.
    assert list(sc.origin.items()) == [
        ("a", "member"),
        ("h", "member"),
        ("i", "member"),
        ("p", "inferred"),
        ("qc", "numeric"),
        ("s", "member"),
    ]
    # The implication pass runs before the numeric layer of its round.
    sc = satisfaction_closure(
        ["a", "s", "h"], parse_ok("t a: x = 1. q qc: x >= 1. t s. k h: s -> qc.")
    )
    assert list(sc.origin) == sorted(sc.origin)
    assert sc.origin["qc"] == "inferred"


def _small_expanded_models(per_kind: int = 6, max_members: int = 11):
    """tasks=3 generated models, with and without quantities, value
    conflicts expanded, small enough to check every member subset."""
    for quantities in (False, True):
        kept = seed = 0
        while kept < per_kind:
            spec = ModelGenSpec(seed=seed, tasks=3, include_quantities=quantities)
            db, _ = expand_value_conflicts(generate_database(spec))
            seed += 1
            if len(db.member_ids()) <= max_members:
                kept += 1
                yield spec, db


def test_closure_matches_naive_satisfaction_on_every_subset():
    for spec, db in _small_expanded_models():
        members = db.member_ids()
        for size in range(len(members) + 1):
            for subset in itertools.combinations(members, size):
                chosen = frozenset(subset)
                closure = satisfaction_closure(chosen, db)
                assert (closure.satisfied, closure.bottom) == naive_satisfaction(
                    chosen, db
                ), f"{spec}: {sorted(chosen)}"
                # Without quantities nothing is discharged numerically, so the
                # symbolic closure is the whole satisfaction closure.
                symbolic = symbolic_closure(chosen, db)
                if spec.include_quantities:
                    assert symbolic.derived <= closure.satisfied
                else:
                    assert (symbolic.derived, symbolic.bottom_witness) == (
                        closure.satisfied,
                        closure.bottom_witness,
                    ), f"{spec}: {sorted(chosen)}"


CYCLIC = (
    "t a: x = y + 1. t b: y = x + 1. t c: x = 2. t d: y = 3. q qc: x >= 2. "
    "k e: z = x * 2. q qz: z > 3."
)
DIVIDING = (
    "t a: x = w / (w - 2). t f: w = 2. t b: y = 2. t c: x = y / (y - 2). "
    "q qc: x > 0. k d: y = 2. q qd: y >= 2. t e: z = y / (w - 2). t g: w = 3."
)
PROBABILISTIC = (
    "t a: x ~ Normal(1, 2). t b: x ~ Normal(0, 1). t c: y = 1. "
    "q qp: P(x <= y) >= 0.5. k d: y = 3. q qq: P(x < 2) > 0.9."
)


# Round order matters here: with {a, r, s, i}, q0 is met in the first round,
# against the values before i fires b; once b gives x a second value, y has
# none, so values taken after the implication pass would leave q0 unmet.
ROUND_ORDER = "t a: x = 1. k b: x = 2. k r: y = x + 1. q q0 !: y >= 2. t s. k i: s -> b."


def reference_satisfaction_closure(members, db) -> SatisfactionClosure:
    """The satisfaction closure as rounds on id sets, the reference for
    `ClosureIndex.satisfied_mask` and `satisfaction_closure`.

    Each round makes one implication pass over the member implications in
    id order, then tests every unsatisfied quantitative requirement against
    the values and distributions of the satisfied set as it stood when the
    round began; `origin` records, in derivation order, the first route
    that satisfied each requirement."""
    ids = _resolve_ids(members, db)
    index = db.closure_index
    order = sorted(ids)
    origin = {req_id: "member" for req_id in order}
    satisfied = origin.keys()  # a live view: it grows with `origin`
    member_implications = [index.implications[i] for i in order if i in index.implications]
    while True:
        keys = (
            index.mask(index.assignments.keys() & satisfied),
            index.mask(index.distributions.keys() & satisfied),
        )
        values = index.values_of(keys[0])
        dists = index.dists_of(keys[1])
        inferred = False
        for imp in member_implications:
            body = imp.body
            if body.consequent not in origin and body.antecedents <= satisfied:
                origin[body.consequent] = "inferred"
                inferred = True
        open_mask = index.mask(index.quantitative.keys() - satisfied)
        met = index.ids_of(index.conditions_met(keys, values, dists, open_mask))
        for req_id in met:
            origin[req_id] = "numeric"
        if not (inferred or met):
            break
    fired = fired_conflicts(
        [index.conflicts[i] for i in index.conflicts.keys() & ids], satisfied
    )
    return SatisfactionClosure(
        members=ids,
        satisfied=frozenset(origin),
        bottom=bool(fired),
        values=values,
        distributions=dists,
        origin=origin,
        bottom_witness=fired,
    )


def _closure_outcome(members, db, closure=satisfaction_closure):
    """Everything a closure reports, or the error it raises."""
    try:
        c = closure(members, db)
    except RoadmapperError as exc:
        return type(exc), str(exc)
    return (
        c.satisfied,
        c.bottom,
        list(c.origin.items()),
        dict(c.values),
        dict(c.distributions),
        c.bottom_witness,
    )


def _fresh(db):
    """The same database with an index of its own, its memo empty."""
    return RequirementsDatabase(db.requirements, db.preferences, db.sat_fns)


def _all_subsets(db):
    members = db.member_ids()
    return [
        frozenset(subset)
        for size in range(len(members) + 1)
        for subset in itertools.combinations(members, size)
    ]


def test_closures_match_the_reference_rounds():
    # Every member subset of 12 small generated models and of four models
    # whose closures raise or depend on the round order. Origins are
    # compared as sets of items: the closure lists them in id order, the
    # reference in derivation order.
    models = [db for _, db in _small_expanded_models()]
    models += [parse_ok(text) for text in (CYCLIC, DIVIDING, PROBABILISTIC, ROUND_ORDER)]
    outcomes = []
    for db in models:
        oracle = _fresh(db)  # so the two sides share no memo
        for chosen in _all_subsets(db):
            found = _closure_outcome(chosen, db)
            expected = _closure_outcome(chosen, oracle, reference_satisfaction_closure)
            if not isinstance(expected[0], type):
                found = (*found[:2], sorted(found[2]), *found[3:])
                expected = (*expected[:2], sorted(expected[2]), *expected[3:])
            assert found == expected, sorted(chosen)
            outcomes.append(expected)
    routes = {route for o in outcomes if not isinstance(o[0], type) for _, route in o[2]}
    assert routes == {"member", "inferred", "numeric"}
    assert any(isinstance(o[0], type) for o in outcomes)
    assert any(not isinstance(o[0], type) and o[1] for o in outcomes)


def test_memoised_closures_match_fresh_index_closures_in_any_order():
    models = [db for _, db in _small_expanded_models()]
    models += [parse_ok(text) for text in (CYCLIC, DIVIDING, PROBABILISTIC)]
    rng = random.Random(4)
    raised = 0
    for db in models:
        subsets = _all_subsets(db)
        expected = {s: _closure_outcome(s, _fresh(db)) for s in subsets}
        rng.shuffle(subsets)
        for chosen in subsets + subsets[: len(subsets) // 4]:
            assert _closure_outcome(chosen, db) == expected[chosen], sorted(chosen)
        raised += sum(isinstance(o[0], type) for o in expected.values())
    assert raised > 0  # the error paths were exercised


@pytest.mark.parametrize(
    "text, members, error",
    [
        (CYCLIC, {"a", "b"}, RefinementCycleError),
        (DIVIDING, {"a", "f"}, DivisionByZeroError),
        (
            " ".join(f"t {v}{i}: {v} = {i}." for v in "xyz" for i in range(17))
            + " q qc: x + y + z > 1000.",
            {f"{v}{i}" for v in "xyz" for i in range(17)},
            ValOverflowError,
        ),
    ],
)
def test_memo_never_stores_an_error(text, members, error):
    db = parse_ok(text)
    for _ in range(3):
        with pytest.raises(error):
            satisfaction_closure(frozenset(members), db)


@pytest.mark.parametrize(
    "body, ghost",
    [
        (Implication(frozenset({"a"}), "ghost"), "ghost"),
        (Implication(frozenset({"ghost"}), "a"), "ghost"),
        (Conflict(frozenset({"a", "ghost"})), "ghost"),
    ],
    ids=["consequent", "antecedent", "conflict"],
)
def test_a_dangling_rule_in_an_unvalidated_database_is_a_reference_error(body, ghost):
    a = parse_ok("t a.").requirements["a"]
    calls = [
        lambda db: db.closure_index,
        lambda db: satisfaction_closure(["a"], db),
        lambda db: symbolic_closure(["a"], db),
        enumerate_configurations,
    ]
    for call in calls:
        db = RequirementsDatabase({"a": a, "i": Requirement("i", body)})
        with pytest.raises(DanglingReferenceError, match=f"'i' references unknown id '{ghost}'"):
            call(db)


def test_order_key_sorts_masks_as_sorted_id_lists_sort():
    index = generate_database(ModelGenSpec(seed=1, tasks=3)).closure_index
    rng = random.Random(7)
    # Every subset of the first seven ids (prefixes of each other included),
    # and random subsets of all of them.
    masks = [
        index.mask(subset)
        for size in range(8)
        for subset in itertools.combinations(index.ids[:7], size)
    ]
    masks += [
        index.mask(rng.sample(index.ids, rng.randint(1, len(index.ids))))
        for _ in range(500)
    ]
    rng.shuffle(masks)
    assert sorted(masks, key=index.order_key) == sorted(masks, key=index.ids_of)


@st.composite
def masks_over_an_index(draw):
    """A closure index over 1-12 task ids, whose id order is not their
    numeric order, and masks over it: random ones, repeats of them, the
    empty mask, and nested chains grown one random mask at a time."""
    numbers = draw(st.lists(st.integers(0, 150), min_size=1, max_size=12, unique=True))
    index = parse_ok(" ".join(f"t u{n}." for n in numbers)).closure_index
    some_mask = st.integers(0, (1 << len(numbers)) - 1)
    masks = draw(st.lists(some_mask, max_size=16))
    masks += draw(st.lists(st.sampled_from(masks), max_size=6)) if masks else []
    for _ in range(draw(st.integers(0, 3))):
        chain = [draw(some_mask)]
        for grow in draw(st.lists(some_mask, max_size=5)):
            chain.append(chain[-1] | grow)
        masks += chain
    if draw(st.booleans()):
        masks.append(0)
    return index, draw(st.permutations(masks))


@settings(max_examples=300, deadline=None)
@given(masks_over_an_index())
def test_minimal_masks_match_the_minimal_sets_of_their_ids(drawn):
    index, masks = drawn
    sets = {frozenset(index.ids_of(mask)) for mask in masks}
    minimal = [s for s in sets if not any(other < s for other in sets)]
    expected = sorted(minimal, key=lambda s: (len(s), sorted(s)))
    found = _minimal_masks(masks, index.order_key)
    assert [frozenset(index.ids_of(mask)) for mask in found] == expected


def test_memo_stays_within_its_cap():
    assignments = 11
    text = " ".join(f"t a{i}: v{i} = {i}." for i in range(assignments))
    db = parse_ok(text + " t d: v0 ~ Normal(0, 1). q qc: v1 + v2 >= 3.")
    subsets = _all_subsets(db)
    assert 2 ** assignments > _MEMO_LIMIT
    index = db.closure_index
    sizes = set()
    for chosen in subsets:
        satisfaction_closure(chosen, db)
        sizes.add(
            max(len(index._values), len(index._dists), len(index._outcomes))
        )
    assert max(sizes) == _MEMO_LIMIT
    for chosen in subsets[::97]:
        assert _closure_outcome(chosen, db) == _closure_outcome(chosen, _fresh(db))


def test_search_limit_raises_resource_error():
    from roadmapper.errors import ResourceLimitError

    db = parse_ok(
        "g p1. t a. t b. t c. k i1: a & b -> p1. k i2: b & c -> p1. k i3: a & c -> p1."
    )
    with pytest.raises(ResourceLimitError) as caught:
        qualitative_operationalizations("p1", db, limit=1)
    assert str(caught.value) == (
        "threshold-support search for 'p1' stopped after 2 nodes, more than limit=1; "
        "the limit keyword of qualitative_operationalizations raises it "
        "(the CLI has no option for it)"
    )


# --- pinned support-search behaviour ----------------------------------------------------------

def numeric_cycle_text(seed: int) -> str:
    """A small model whose assignments, quality constraints and implications
    depend on one another: 2-5 variables, 2-8 k- or t-sorted assignments (a
    constant, or `x_j op c` over a lower-numbered variable), 1-3 quality
    constraints, goals implied by assignments, 0-2 implications whose
    consequent is an assignment, and sometimes a conflict. Some draws close
    an implication cycle and do not parse."""
    rng = random.Random(seed)
    variables = rng.randint(2, 5)
    lines, assignments = [], []
    for i in range(rng.randint(2, 8)):
        var = rng.randrange(variables)
        if var and rng.random() < 0.5:
            rhs = f"x{rng.randrange(var)} {rng.choice('+-*')} {rng.randint(1, 3)}"
        else:
            rhs = str(rng.randint(0, 5))
        modality = rng.choice(["", "", " ?", " !"])
        lines.append(f"{rng.choice('kt')} a{i}{modality}: x{var} = {rhs}.")
        assignments.append(f"a{i}")
    qualities = [f"q{i}" for i in range(rng.randint(1, 3))]
    for q in qualities:
        op = rng.choice(["<=", ">=", "=", "<", ">"])
        lines.append(
            f"q {q}{rng.choice(['', ' !'])}: x{rng.randrange(variables)} {op} {rng.randint(0, 10)}."
        )
    for i in range(rng.randint(0, 2)):
        lines.append(f"g g{i}{rng.choice(['', ' !'])}.")
        lines.append(f"k i{i}: {rng.choice(assignments)} -> g{i}.")
    for i in range(rng.randint(0, 2)):
        antecedents = rng.sample(qualities + assignments, rng.randint(1, 2))
        lines.append(f"k j{i}: {' & '.join(antecedents)} -> {rng.choice(assignments)}.")
    if rng.random() < 0.3:
        lines.append(f"k c0: {' & '.join(rng.sample(qualities + assignments, 2))} -> false.")
    return "\n".join(lines) + "\n"


def support_transcript(db) -> str:
    """Both public operationalization functions on every eligible id, and
    `enumerate_configurations` at search limits 3, 30, 300 and the default:
    the supports or configurations found, or the type and message of the
    error."""
    lines = []

    def run(label, fn):
        try:
            lines.append(f"{label} -> {fn()}")
        except Exception as exc:  # every error is part of the pinned behaviour
            lines.append(f"{label} -> {type(exc).__name__}: {exc}")

    for req in sorted(db, key=lambda r: r.id):
        if req.sort in (G, Q, S):
            run(f"qual {req.id}", lambda: [
                sorted(op.support) for op in qualitative_operationalizations(req.id, db)
            ])
        if isinstance(req.body, SimpleQuant):
            run(f"quant {req.id}", lambda: [
                sorted(op.support) for op in quantitative_operationalizations(req.id, db)
            ])
    def configurations(limit):
        enum = enumerate_configurations(db, max_atoms=64, search_limit=limit)
        return [sorted(c.members) for c in enum], enum.truncated

    for limit in (3, 30, 300, DEFAULT_SEARCH_LIMIT):
        run(f"configs {limit}", lambda: configurations(limit))
    return "\n".join(lines)


def _support_models(las_db):
    yield "las", las_db
    for seed in range(20):
        spec = ModelGenSpec(seed=seed, tasks=3 + seed % 5, include_quantities=seed % 4 != 3)
        yield f"gen-{seed}", generate_database(spec)
    parsed = (parse(numeric_cycle_text(seed)) for seed in itertools.count())
    valid = (result.database for result in parsed if result.ok)
    for i, db in enumerate(itertools.islice(valid, 20)):
        yield f"cycle-{i}", db
    for name, text in ERROR_MODELS.items():
        yield name, parse_ok(text)


# Paths of the support search that the models above miss: a refinement
# cycle through two variables and through one (each derivation that reads
# its own variable is dropped; the closure raises RefinementCycleError on
# the members that hold it), more than MAX_VALUES_PER_VARIABLE
# values (ValOverflowError), a division by zero in one value combination,
# and a probability bound.
ERROR_MODELS = {
    "cyclic": "t a: x = y + 1. t b: y = x + 1. t c: x = 2. t d: y = 3. q qc !: x >= 2.",
    "self": "t a: x = x + 1. t c: x = 2. q qc !: x >= 2.",
    "overflow": "".join(f"t v{i}: x = {i}. " for i in range(65)) + "q qc !: x >= 2.",
    "divide": "t a: x = w / (w - 2). t f: w = 2. t g: w = 3. q qc !: x > 0.",
    "prob": "t a: x ~ Normal(1, 2). t c: y = 1. q qp !: P(x <= y) >= 0.5.",
}


# The first 16 hex digits of the sha256 of each model's support transcript.
SUPPORT_DIGESTS = {
    "las": "eb59fc8f67db819b",
    "gen-0": "72bc2043b4cd0229",
    "gen-1": "3537ede94a36d9d4",
    "gen-2": "31d78f619e257395",
    "gen-3": "0a286c3da41ad84f",
    "gen-4": "c7dceb0632559232",
    "gen-5": "2a63c728a67d3dad",
    "gen-6": "23ce535cfcacc37f",
    "gen-7": "40b1fa22b51d7bb8",
    "gen-8": "5114e763ca27220e",
    "gen-9": "5dae71454e378a3a",
    "gen-10": "a289212cb1d795d9",
    "gen-11": "ea6b1dd7289d37d9",
    "gen-12": "e0b4b6e01ea608c0",
    "gen-13": "d1c552ff692e031d",
    "gen-14": "62bb58b7d556129d",
    "gen-15": "0dabaefcf6189b45",
    "gen-16": "e5f119f980dd8dab",
    "gen-17": "a065197b0fe0eb7c",
    "gen-18": "d12f3d9600d5f2ec",
    "gen-19": "a102f0e7525039c9",
    "cycle-0": "c4fe9623ff0a58ea",
    "cycle-1": "ca73caefe106631d",
    "cycle-2": "10add742575e327e",
    "cycle-3": "f7d74f392f2d14c1",
    "cycle-4": "a9fe324a2cafa113",
    "cycle-5": "5a8092448b29edc1",
    "cycle-6": "6f37a71306cf58eb",
    "cycle-7": "df173ba652c3d8f7",
    "cycle-8": "9d636293a157e7df",
    "cycle-9": "eeb2fcdb842aff1d",
    "cycle-10": "d1f7d93a63a4723a",
    "cycle-11": "972300ffabb84a8a",
    "cycle-12": "15a72a3042d2d7d6",
    "cycle-13": "7661a52c1939999a",
    "cycle-14": "03e1ecb03721a48a",
    "cycle-15": "3b7cf8275ccf1aa6",
    "cycle-16": "7a00023b582acf81",
    "cycle-17": "36a26746818726ec",
    "cycle-18": "9da88232ae0c92f2",
    "cycle-19": "cf760f048fcb333c",
    "cyclic": "58436449b8d5ee32",
    "self": "1b33bfcf500b6b63",
    "overflow": "cc2bad7cc905e8bd",
    "divide": "8caf6efe82eea6d4",
    "prob": "4a1730fd408ae93c",
}


def test_support_search_matches_pinned_digests(las_db):
    digests = {
        name: hashlib.sha256(support_transcript(db).encode()).hexdigest()[:16]
        for name, db in _support_models(las_db)
    }
    assert digests == SUPPORT_DIGESTS


def _two_values_from_mandatory(db) -> bool:
    """Whether the mandatory members give some variable two values: the
    support search gives each variable one value per derivation, so it may
    miss supports of such a database (see `quantitative_operationalizations`)."""
    values = satisfaction_closure(db.closure_index.mandatory_members, db).values
    return any(len(found) > 1 for found in values.values())


# Seeds 1, 633, 895, 896, 1014 and 1119 each have a target whose supports
# need another value of a variable that the derivation also reads.
QUANT_ORACLE_SEEDS = [*range(150), 633, 895, 896, 1014, 1119]


def test_quantitative_supports_match_the_oracle():
    compared, disagreements = 0, []
    for seed in QUANT_ORACLE_SEEDS:
        result = parse(numeric_cycle_text(seed))
        if not result.ok or len(result.database.member_ids()) > 12:
            continue
        db = result.database
        if _two_values_from_mandatory(db):
            continue
        for req in sorted(db.of_sort(Q), key=lambda r: r.id):
            compared += 1
            engine = [op.support for op in quantitative_operationalizations(req.id, db)]
            oracle = brute_operationalizations(req.id, db)
            if engine != oracle:
                disagreements.append((seed, req.id, engine, oracle))
    assert compared > 200
    assert disagreements == []


@pytest.mark.parametrize("name, qual, quant", [
    ("self", [], [{"c"}]),
    ("cyclic", [], [{"a", "d"}, {"c"}]),
])
def test_refinement_cycle_supports_match_the_oracle(name, qual, quant):
    # `x = x + 1` (self) and `x = y + 1, y = x + 1` (cyclic) give x no
    # value on their own members; the search drops those derivations and
    # keeps the supports that assign x directly.
    db = parse_ok(ERROR_MODELS[name])
    assert [op.support for op in qualitative_operationalizations("qc", db)] == qual
    supports = [op.support for op in quantitative_operationalizations("qc", db)]
    assert supports == quant == brute_operationalizations("qc", db)


def test_support_of_a_value_that_reads_another_value_of_its_variable():
    # cycle-1 of the pinned models. With a0 (x0 = 2), a1 gives x1 the value
    # 3, so q1 (x1 >= 0) holds, and `j0: q1 & a3 -> a2` makes a2 hold: x1
    # also takes x0 * 2 = 4, and q0 (x1 > 3) holds. Deriving that value of
    # x1 reads another value of x1 only through a carrier's route.
    db = parse_ok(numeric_cycle_text(1))
    supports = [op.support for op in quantitative_operationalizations("q0", db)]
    assert {"a0", "a1", "a3", "j0"} in supports
    assert supports == brute_operationalizations("q0", db)
