from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from itertools import takewhile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from roadmapper.cli import main
from roadmapper.model import (
    Compare,
    Conflict,
    Distributed,
    ExpDecay,
    Implication,
    Modality,
    PiecewiseLinear,
    PlateauThenDecay,
    PreferenceKind,
    ProbCompare,
    Softgoal,
)
from roadmapper.parser import (
    _PUNCT,
    _UNITS,
    MAX_EXPR_DEPTH,
    Severity,
    SourceSpan,
    _diagnostics,
    _lex,
    _SourceError,
    parse,
    serialize,
)
from roadmapper.quanteval import eval_expr
from roadmapper.testkit import ModelGenSpec, generate_database

from conftest import LAS_PATH, implication_chain, parse_ok


def test_parse_operationalization_example():
    db = parse_ok('t u1 "locate caller". g p2 "location known". k imp1: u1 -> p2.')
    assert len(db.requirements) == 3
    body = db["imp1"].body
    assert isinstance(body, Implication)
    assert body.antecedents == frozenset({"u1"}) and body.consequent == "p2"
    assert db["u1"].description == "locate caller"


def test_parse_empty_input():
    result = parse("")
    assert result.ok and result.diagnostics == []
    assert len(result.database.requirements) == 0


def test_parse_conflict_declaration():
    db = parse_ok("t u2. t u4. k c1: u2 & u4 -> false.")
    body = db["c1"].body
    assert isinstance(body, Conflict)
    assert body.antecedents == frozenset({"u2", "u4"})


def test_unit_suffixes_normalize_to_seconds():
    db = parse_ok("q qt6: t6 <= 3min. q qt7: t7 <= 6hrs. k kt: t1 = 30sec.")
    assert db["qt6"].body.cond.rhs.value == 180.0
    assert db["qt7"].body.cond.rhs.value == 21600.0
    assert db["kt"].body.cond.rhs.value == 30.0


def test_modality_markers():
    db = parse_ok("t a !. t b ?. t c.")
    assert db["a"].modality is Modality.MANDATORY
    assert db["b"].modality is Modality.OPTIONAL
    assert db["c"].modality is Modality.PLAIN


def test_probability_condition():
    db = parse_ok("q q7: P(e <= 0.10) = 0.8.")
    cond = db["q7"].body.cond
    assert isinstance(cond, ProbCompare)
    assert cond.inner_op == "<=" and cond.outer_op == "="
    assert cond.level.value == 0.8


def test_distribution_condition():
    db = parse_ok("k kd: t2 ~ Normal(60, 2025).")
    cond = db["kd"].body.cond
    assert isinstance(cond, Distributed)
    assert cond.dist.mean == 60.0 and cond.dist.variance == 2025.0


def test_softgoal_content():
    db = parse_ok('s p17: ~ "Ambulances should quickly arrive".')
    body = db["p17"].body
    assert isinstance(body, Softgoal)
    assert body.content.text == "Ambulances should quickly arrive"


def test_softgoal_content_defaults_to_description():
    db = parse_ok('s w1 "High safety".')
    assert db["w1"].body.content.text == "High safety"


def test_preference_kinds():
    db = parse_ok(
        "t a. t b. t c. t d. pref: a > b. pref: b >= c. pref: c ~= d."
    )
    kinds = {(p.left, p.right): p.kind for p in db.preferences}
    assert kinds[("a", "b")] is PreferenceKind.STRICT
    assert kinds[("b", "c")] is PreferenceKind.WEAK
    assert kinds[("c", "d")] is PreferenceKind.INDIFFERENT


def test_satfn_declarations():
    db = parse_ok(
        "satfn t2 = exp(1.0). satfn v = plateau(21600, 32400, 1.0). "
        "satfn w = pwl((0, 1.0), (10, 0.5))."
    )
    assert db.sat_fns["t2"] == ExpDecay(1.0)
    assert db.sat_fns["v"] == PlateauThenDecay(21600.0, 32400.0, 1.0)
    assert db.sat_fns["w"] == PiecewiseLinear(((0.0, 1.0), (10.0, 0.5)))


def test_expression_grammar():
    db = parse_ok("k e: v = (a + b) * c - d / 2 ^ 2.")
    cond = db["e"].body.cond
    assert isinstance(cond, Compare) and cond.op == "="


def test_comparison_operators():
    text = ". ".join(
        f"q q{i}: x {op} {i}" for i, op in enumerate(("<", ">", "<=", ">=", "=", "!="))
    )
    db = parse_ok(text + ".")
    assert len(db.requirements) == 6


def _error_messages(text: str):
    result = parse(text)
    assert not result.ok
    return [d for d in result.diagnostics if d.severity is Severity.ERROR]


def test_duplicate_id_is_an_error():
    errors = _error_messages("t a. t a.")
    assert any("duplicate" in e.message for e in errors)
    assert errors[0].span.line == 1


def test_dangling_reference_is_an_error():
    errors = _error_messages("g p1. k i1: u99 -> p1.")
    assert any("u99" in e.message for e in errors)


def test_strict_self_preference_is_one_error_at_the_preference(tmp_path, capsys):
    errors = _error_messages("t a.\npref: a > a.")
    assert [(e.span.line, e.span.column, e.message) for e in errors] == [
        (2, 1, "strict preference of 'a' over itself")
    ]
    path = tmp_path / "self.req"
    path.write_text("t a.\npref: a > a.\n")
    assert main(["check", str(path)]) == 1
    assert "strict preference of 'a' over itself" in capsys.readouterr().out


def test_a_preference_side_named_twice_is_reported_once():
    errors = _error_messages("pref: a > a.")
    assert [(e.span.line, e.span.column, e.message) for e in errors] == [
        (1, 1, "preference references unknown id 'a'"),
        (1, 1, "strict preference of 'a' over itself"),
    ]
    errors = _error_messages("pref: a >= a.")
    assert [e.message for e in errors] == ["preference references unknown id 'a'"]


@pytest.mark.parametrize("op", [">=", "~="])
def test_weak_and_indifferent_self_preferences_are_accepted(op):
    db = parse_ok(f"t a. pref: a {op} a.")
    assert [(p.left, p.right) for p in db.preferences] == [("a", "a")]


def test_relation_on_non_assumption_is_an_error():
    errors = _error_messages("t a. g p1. g i1: a -> p1.")
    assert any("domain assumptions" in e.message for e in errors)


def test_goal_with_condition_is_an_error():
    errors = _error_messages("g p1: x <= 3.")
    assert any("propositional" in e.message for e in errors)


def test_quality_constraint_requires_condition():
    errors = _error_messages("q q1.")
    assert any("condition" in e.message for e in errors)


def test_conflict_needs_two_antecedents():
    errors = _error_messages("t a. k c1: a -> false.")
    assert any("two distinct antecedents" in e.message for e in errors)


def test_implication_cycle_has_local_span():
    text = "t a.\ng p1.\nk i1: a -> p1.\nk i2: p1 -> a.\n"
    errors = _error_messages(text)
    assert any("cycle" in e.message for e in errors)
    assert all(e.span.line >= 3 for e in errors)


def test_long_implication_chain_parses():
    db = parse_ok(implication_chain(1500))
    assert len(db.requirements) == 3001


def test_closing_a_long_chain_gives_one_cycle_error_on_its_line():
    text = implication_chain(1500) + "k i0: a1500 -> a0.\n"
    errors = _error_messages(text)
    assert len(errors) == 1
    assert "cycle" in errors[0].message
    assert errors[0].span.line == text.count("\n")


def test_validity_problems_and_syntax_errors_are_all_reported_at_their_lines():
    text = (
        "t a.\n"
        "g p1.\n"
        "k i1: ghost -> p1.\n"
        "pref: a > nowhere.\n"
        "k i2: a -> p1.\n"
        "k i3: p1 -> a.\n"
        "q broken.\n"
    )
    errors = _error_messages(text)
    lines = {e.span.line: e.message for e in errors}
    assert len(errors) == 4 and sorted(lines) == [3, 4, 6, 7]
    assert "ghost" in lines[3]
    assert "nowhere" in lines[4]
    assert "cycle" in lines[6]
    assert "condition" in lines[7]


def test_diagnostics_are_listed_by_position():
    text = "t a.\ng p1.\nk i1: ghost -> p1.\nt b.\nt c.\nt d.\nq broken.\n"
    result = parse(text)
    assert [d.span.line for d in result.diagnostics] == [3, 7]


DEEP_EXPRESSIONS = {
    "sum": "t a: y = " + " + ".join(["x"] * 3000) + ".",
    "power": "t a: y = " + " ^ ".join(["2"] * 1500) + ".",
    "parentheses": "t a: y = " + "(" * 1500 + "x" + ")" * 1500 + ".",
}


@pytest.mark.parametrize("name", sorted(DEEP_EXPRESSIONS))
def test_too_deep_expression_is_one_diagnostic(name):
    errors = _error_messages(DEEP_EXPRESSIONS[name] + "\nt b: x = 1.\nq oops.\n")
    assert [e.span.line for e in errors] == [1, 3]
    assert f"nested more than {MAX_EXPR_DEPTH} levels" in errors[0].message


def test_expressions_at_the_depth_cap_parse_evaluate_and_round_trip():
    terms = MAX_EXPR_DEPTH + 1  # one operator fewer than terms
    left = MAX_EXPR_DEPTH - 1  # parentheses around a left-nested '^' tree
    text = (
        "t a: y = " + " + ".join(["x"] * terms) + ".\n"
        "t c: z = " + "(" * MAX_EXPR_DEPTH + "x" + ")" * MAX_EXPR_DEPTH + ".\n"
        # Serialized, the negative exponents gain parentheses.
        "t d: w = " + " ^ ".join(["1"] * (terms - 1) + ["-1"]) + ".\n"
        "t e: v = " + "(" * left + "2 ^ -1" + ") ^ 2" * left + ".\n"
    )
    db = parse_ok(text)
    assert eval_expr(db["a"].body.cond.rhs, {"x": 1.0}) == terms
    assert eval_expr(db["d"].body.cond.rhs, {}) == 1.0
    assert "^ (-1.0)" in serialize(db)
    assert parse_ok(serialize(db)) == db


def test_division_by_constant_zero_is_a_span_diagnostic():
    errors = _error_messages("t b: y = 1.\nt a: x = y / 0.\n")
    assert [(e.span.line, e.span.column) for e in errors] == [(2, 12)]
    assert "division by the constant 0" in errors[0].message


def test_inconsistent_mandatory_set_is_an_error():
    errors = _error_messages("t a !. t b !. k c1 !: a & b -> false.")
    assert any("mandatory subset" in e.message for e in errors)


def test_error_recovery_reports_multiple_errors():
    errors = _error_messages("t a. q broken. t a. k x: nowhere -> alsonot.")
    assert len(errors) >= 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("satfn v = exp(-1).", "decay rate"),
        ("satfn v = plateau(5, 1, 2).", "zero_at"),
        ("satfn v = pwl((2, 0.5), (1, 0.2)).", "strictly increasing"),
        ("satfn v = pwl((1, 2)).", "[0, 1]"),
        ("k d: x ~ Normal(0, -1).", "variance"),
        ("q a: P(x <= 1) >= 2.", "probability level"),
    ],
)
def test_values_a_model_object_rejects_are_diagnostics(text, message, tmp_path, capsys):
    """Well-formed text whose values a model constructor rejects gives one
    error at the declaration, and `check` reports it as a model error."""
    errors = _error_messages("t a.\n  " + text)
    assert [(e.span.line, e.span.column) for e in errors] == [(2, 3)]
    assert message in errors[0].message
    path = tmp_path / "bad.req"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    assert "internal" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, lines",
    [
        ('g a: ~ "x".\ng a2: ~ "y".\ng a3: ~ "z".', [1, 2, 3]),
        ("t a.\nq broken.\nt a.", [2, 3]),
        ("q q1.\nsatfn v = exp(-1).", [1, 2]),
    ],
)
def test_an_error_after_the_full_stop_skips_no_declaration(text, lines):
    """A declaration rejected once its `.` is read leaves the next
    declaration to be parsed and checked."""
    assert [e.span.line for e in _error_messages(text)] == lines


def test_softgoal_conflict_warning():
    result = parse('s w1: ~ "soft". t a. k c1: w1 & a -> false.')
    assert result.ok
    assert any(d.severity is Severity.WARNING for d in result.diagnostics)


def _offsets(text: str) -> dict[tuple[int, int], int]:
    """The offset at each (line, column) of `text`, counted one character at
    a time, and the place after its last character."""
    where, line, column = {}, 1, 1
    for offset, ch in enumerate(text + "\0"):
        where[line, column] = offset
        if ch == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    return where


def _spans(text: str, offsets) -> list[tuple[int, int]]:
    """The line and column that `parse` reports for each of `offsets`."""
    found = [(offset, Severity.ERROR, "") for offset in offsets]
    return [(d.span.line, d.span.column) for d in _diagnostics(text, "f.req", found)]


@pytest.mark.parametrize(
    "text",
    [
        '// lead\r\nt a1 !: x = 5min.\r\n\tk i1: a1 -> g1 "say \\"hi\\" \\\\\r\n'
        'on two lines".\ng g1 !. q q1: P(rt <= 2.5sec) >= .9. // tail\r\n'
        "\t\tt b: y = 1.5e3hrs.",
        "t a.\n// a comment at the end",
        "\t\r\n\r\n",
    ],
    ids=["mixed", "comment-at-eof", "blank"],
)
def test_token_spans_match_a_per_character_count(text):
    where = _offsets(text)
    spans = _spans(text, range(len(text) + 1))
    assert {span: offset for offset, span in enumerate(spans)} == where
    tokens = _lex(text)
    offsets = [token.offset for token in tokens]
    assert offsets == sorted(set(offsets))
    assert tokens[-1].kind == "eof" and offsets[-1] == len(text)
    for token, offset in zip(tokens[:-1], offsets):
        if token.kind == "string":
            assert text[offset] == '"'
        elif token.kind == "number":
            assert text[offset] in "0123456789."
        else:
            assert text.startswith(token.value, offset)
    [error] = parse(text + '\r\n\tt c "open').errors()
    assert (error.span.line, error.span.column) == (text.count("\n") + 2, 6)


def test_unterminated_string():
    result = parse('t a "oops.')
    assert not result.ok


def test_unknown_unit_suffix():
    result = parse("k e: v = 3days.")
    assert not result.ok
    assert any("unit" in d.message for d in result.diagnostics)


@pytest.mark.parametrize("literal", ["1e999", "1e305hrs"])
def test_number_literals_that_are_not_finite_are_errors(literal):
    [error] = parse(f"t a.\nk b: x = {literal}.").errors()
    assert error.message == f"number literal {literal!r} is out of range"
    assert (error.span.line, error.span.column) == (2, 10)
    assert parse(f"k b: x = {literal[:4]}.").ok


def test_round_trip_empty_database():
    db = parse_ok("")
    text = serialize(db)
    assert text.startswith("//")
    again = parse(text)
    assert again.ok and again.database == db


def test_round_trip_las(las_db):
    text = serialize(las_db)
    again = parse(text)
    assert again.ok
    assert again.database == las_db


def test_round_trip_preference():
    db = parse_ok("t u10. t u13. pref: u10 > u13.")
    again = parse_ok(serialize(db))
    assert again.preferences == db.preferences


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_generated_models(seed):
    db = generate_database(
        ModelGenSpec(seed=seed, tasks=4, goals=2, include_quantities=seed % 3 == 0)
    )
    again = parse(serialize(db))
    assert again.ok, [str(d) for d in again.diagnostics]
    assert again.database == db


def test_round_trip_preserves_expression_shape():
    db = parse_ok("k e1: v = a + (b + c). k e2: w = (a + b) + c.")
    again = parse_ok(serialize(db))
    assert again["e1"].body == db["e1"].body
    assert again["e2"].body == db["e2"].body
    assert again["e1"].body != again["e2"].body


def test_las_file_parses_cleanly():
    from roadmapper.parser import load_file

    result = load_file(LAS_PATH)
    assert result.ok
    assert not result.warnings()


def test_false_is_reserved():
    errors = _error_messages("t false.")
    assert any("reserved" in e.message for e in errors)


# Words, literals and stray characters of the `.req` language, with every
# punctuation token; joined at random they are mostly not a valid document.
_TOKENS = (
    *"kgqst",
    "pref", "satfn", "false", "P", "Normal", "exp", "plateau", "pwl",
    "a", "b", "x1", "_v", "@w",
    "0", "2", "2.5", ".5", "1e3", "3min", "4hrs", "7xyz",
    '"text"', '"esc\\"', '"open',
    "// note\n", "#", "\u00e9", "\t",
    # Numerals that are digits, letters or neither to `str` and `re`.
    "\u00b2", "\u00bd", "\u0663", "\u216b",
    *_PUNCT,
)


@given(
    st.lists(
        st.tuples(st.sampled_from(_TOKENS), st.sampled_from(("", " ", "\n"))),
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_random_token_streams_give_diagnostics_never_exceptions(stream):
    result = parse("".join(token + gap for token, gap in stream))
    assert result.ok != bool(result.errors())
    assert all(isinstance(d.span.line, int) for d in result.diagnostics)


# --- the lexer before it was one regex, kept as the oracle for `_lex` ---------

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "string" | punctuation | "eof"
    value: object
    span: SourceSpan


class _LexError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(message)
        self.span = span
        self.message = message


# Whitespace and comments between tokens.
_BLANK = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*")


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_@"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_@"


def reference_lex(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    # Line, and offset where it starts, as of offset `last`: each span counts
    # only the newlines since the previous one, so lexing stays linear.
    line, line_start, last = 1, 0, 0

    def span() -> SourceSpan:
        nonlocal line, line_start, last
        breaks = text.count("\n", last, i)
        if breaks:
            line += breaks
            line_start = text.rfind("\n", last, i) + 1
        last = i
        return SourceSpan(filename, line, i - line_start + 1)

    while True:
        i = _BLANK.match(text, i).end()
        if i >= n:
            break
        ch = text[i]
        start = span()
        if ch == '"':
            i += 1
            chars: list[str] = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n and text[i + 1] in ('"', "\\"):
                    chars.append(text[i + 1])
                    i += 2
                else:
                    chars.append(text[i])
                    i += 1
            if i >= n:
                raise _LexError(start, "unterminated string literal")
            i += 1
            tokens.append(_Token("string", "".join(chars), start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            value = float(text[i:j])
            i = j
            if i < n and text[i].isalpha():
                k = i
                while k < n and text[k].isalpha():
                    k += 1
                suffix = text[i:k]
                if suffix not in _UNITS:
                    raise _LexError(start, f"unknown unit suffix {suffix!r}")
                value *= _UNITS[suffix]
                i = k
            tokens.append(_Token("number", value, start))
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append(_Token("ident", text[i:j], start))
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(_Token(punct, punct, start))
                i += len(punct)
                break
        else:
            raise _LexError(start, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", None, span()))
    return tokens


# Texts at the edges of the lexical rules.
LEXER_EDGE_CASES = [
    't a "quote \\" backslash \\\\ other \\d line \\\n end" "\\\\".',
    't a "open \\',
    "k a: x = 2\u00bd.",
    "k a: x = 3min\u00bd.",
    "k a: x = 5mi\u216b.",
    "k a: x = 4hrs\u216b.",
    "t \u00bda.",
    "t a\u216b\u00bd\u00b2 @w@1 _v.",
    "k a: x = \u0663\u0663.\u0663e\u0663 + 1.e5 + .5.5 + x.5.",
    "k a: x = 1e+ 2.",
    "k a: x = 5_x + 5min3.",
    "\r\n\t// only a comment",
    "t a. // c\r\n#",
    "",
]


def _overflows(tokens) -> bool:
    return any(t.kind == "number" and not math.isfinite(t.value) for t in tokens)


def _check_against_reference(text: str) -> bool:
    """Assert that `_lex` gives the tokens and spans, or the error and its
    span, of `reference_lex` on `text`. False, with nothing checked, where
    the reference fails on a numeral or yields a number that is not finite:
    `_lex` reports both as errors."""
    try:
        expected = reference_lex(text, "f.req")
    except _LexError as exc:
        # The tokens before the error, which the same text starts with.
        where = _offsets(text)[exc.span.line, exc.span.column]
        if _overflows(reference_lex(text[:where], "f.req")):
            return False
        with pytest.raises(_SourceError) as raised:
            _lex(text)
        assert raised.value.message == exc.message
        assert _spans(text, [raised.value.offset]) == [(exc.span.line, exc.span.column)]
        return True
    except ValueError:  # `float` refuses a numeral such as `²` that `isdigit` accepts
        return False
    if _overflows(expected):
        return False
    tokens = _lex(text)
    assert [(t.kind, t.value) for t in tokens] == [(t.kind, t.value) for t in expected]
    assert _spans(text, [t.offset for t in tokens]) == [
        (t.span.line, t.span.column) for t in expected
    ]
    return True


@pytest.mark.parametrize("text", LEXER_EDGE_CASES)
def test_the_lexer_matches_the_reference_lexer_on_edge_cases(text):
    assert _check_against_reference(text)


@given(
    st.lists(
        st.tuples(
            st.sampled_from((*_TOKENS, "\\")), st.sampled_from(("", " ", "\n", "\r\n"))
        ),
        max_size=40,
    )
)
@settings(max_examples=500, deadline=None)
def test_the_lexer_matches_the_reference_lexer(stream):
    text = "".join(token + gap for token, gap in stream)
    assert _lexed(_lex, text) == _lexed(regex_lex, text)
    assume(_check_against_reference(text))


# --- the lexer when it was one master regex, the oracle for `_lex` ------------
# `_lex` scans with `str` methods, so the CLI's import needs no `re`; this is
# the regex lexer it replaced, as it was, on `_RegexToken` tuples.

_RegexToken = namedtuple("_RegexToken", ("kind", "value", "offset"))

# One token after optional blanks. When no token group matches, only `blank`
# does, and the character after it starts no token. `re` counts numerals such
# as `½` as letters; `regex_lex` rejects them where `str.isalpha` would.
_TOKEN = re.compile(
    r"""
    (?P<blank>(?:[ \t\r\n]+|//[^\n]*)*)
    (?:
        (?P<string>"(?:[^"\\]|\\["\\]|\\(?!["\\]))*")
      | (?P<number>(?P<numeral>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)(?P<unit>[^\W\d_]*))
      | (?P<ident>(?:[^\W\d]|@)[\w@]*)
      | (?P<punct>"""
    + "|".join(map(re.escape, _PUNCT))
    + r""")
      | (?P<eof>\Z)
    )?
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r'\\(["\\])')


def regex_lex(text: str) -> list[_RegexToken]:
    tokens: list[_RegexToken] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        offset = match.end("blank")
        if kind == "punct":
            kind = value = match["punct"]
        elif kind == "ident":
            value = match["ident"]
            if not value[0].isalpha() and value[0] not in "_@":
                raise _SourceError(offset, f"unexpected character {value[0]!r}")
        elif kind == "number":
            value = _regex_number(match, offset)
        elif kind == "string":
            value = match["string"][1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
        elif kind == "eof":
            break
        elif text[offset] == '"':
            raise _SourceError(offset, "unterminated string literal")
        else:
            raise _SourceError(offset, f"unexpected character {text[offset]!r}")
        tokens.append(_RegexToken(kind, value, offset))
    tokens.append(_RegexToken("eof", None, len(text)))
    return tokens


def _regex_number(match: re.Match, offset: int) -> float:
    value = float(match["numeral"])
    unit = match["unit"]
    # The suffix is the letters after the numeral; `re` also counts numerals
    # such as `½` as letters, and one of those starts no token.
    suffix = "".join(takewhile(str.isalpha, unit)) if unit else ""
    if suffix:
        if suffix not in _UNITS:
            raise _SourceError(offset, f"unknown unit suffix {suffix!r}")
        value *= _UNITS[suffix]
    if not math.isfinite(value):
        literal = match["numeral"] + suffix
        raise _SourceError(offset, f"number literal {literal!r} is out of range")
    if suffix != unit:
        where = match.start("unit") + len(suffix)
        raise _SourceError(where, f"unexpected character {unit[len(suffix)]!r}")
    return value


def _lexed(lex, text: str):
    """The (kind, value, offset) of each token `lex` gives for `text`, or the
    offset and message of its error."""
    try:
        return [tuple(token) for token in lex(text)]
    except _SourceError as exc:
        return exc.offset, exc.message


@pytest.mark.parametrize(
    "text",
    [
        *LEXER_EDGE_CASES,
        "k a: x = 2eggs.",
        "k a: x = 1e5min.",
        "k a: x = 1e+",
        "k a: x = .5.5.",
        't a "ends in a backslash\\',
        't a "one \\" and a trailing backslash\\',
        "t a. // a comment at the end",
        "t a.//",
        # Numerals that are digits, letters or neither to `str` and `re`.
        "k a: x = \u0663 + 2\u0663sec.",
        "k a: x = \u0663\u00bd.",
        "t \u00b2.",
        "t \u216b.",
        "t a\u00b2\u216b\u0663.",
        "k a: x = 2\u00b2.",
        "k a: x = 2min\u0663.",
        "t \u00e9t\u00e9 \u00aa\u00b5.",
    ],
)
def test_the_lexer_matches_the_regex_lexer(text):
    assert _lexed(_lex, text) == _lexed(regex_lex, text)


@given(
    st.builds(
        ModelGenSpec,
        seed=st.integers(0, 10 ** 6),
        tasks=st.integers(1, 8),
        assumptions=st.integers(0, 3),
        goals=st.integers(1, 4),
        conflict_density=st.floats(0, 0.6),
        optional_ratio=st.floats(0, 0.5),
        mandatory_ratio=st.floats(0, 0.6),
        preference_count=st.integers(0, 3),
        include_quantities=st.booleans(),
    )
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parse_serialize_parse_is_stable_on_generated_models(spec):
    db = parse_ok(serialize(generate_database(spec)))
    text = serialize(db)
    again = parse_ok(text)
    assert again == db
    assert serialize(again) == text
