"""Textual format for requirements databases (`.req` files).

Line-oriented, diffable concrete syntax. Declarations end with `.`;
comments run from `//` to end of line. The grammar:

    decl      := atom_decl | rel_decl | pref_decl | satfn_decl
    atom_decl := sort IDENT mod? (":" body)? STRING? "."
    sort      := "k" | "g" | "q" | "s" | "t"
    mod       := "!"  (mandatory) | "?"  (optional)
    body      := "~" STRING                                  softgoal content
               | IDENT "~" "Normal" "(" num "," num ")"      distribution
               | "P" "(" IDENT cmp numexpr ")" cmp numexpr   probability bound
               | numexpr cmp numexpr                         comparison
    rel_decl  := "k" IDENT mod? ":" IDENT ("&" IDENT)* "->" (IDENT | "false")
                 STRING? "."
    pref_decl := "pref" ":" IDENT (">" | ">=" | "~=") IDENT "."
    satfn_decl:= "satfn" IDENT "=" ( "exp" "(" num ")"
                                   | "plateau" "(" num "," num "," num ")"
                                   | "pwl" "(" pair ("," pair)* ")" ) "."
    pair      := "(" num "," num ")"
    cmp       := ">" | "<" | "=" | ">=" | "<=" | "!="
    numexpr   := term (("+" | "-") term)*
    term      := factor (("*" | "/") factor)*
    factor    := primary ("^" factor)?
    primary   := NUMBER | IDENT | "(" numexpr ")" | "-" NUMBER

Lexical rules. Spaces, tabs, line breaks and `//` comments separate tokens.
IDENT is a letter (`str.isalpha`), `_` or `@`, then any run of `str.isalnum`
characters, `_` and `@`. NUMBER is decimal digits with an optional fraction
(`2`, `2.5`, `.5`), an optional exponent (`1e3`, `1E-2`) and an optional run
of letters as unit suffix: `sec`, `min` or `hrs`, normalized to seconds at
parse time; a literal whose value, unit applied, is not a finite float is an
error. STRING is double-quoted and may span lines; `\\"` and `\\\\` escape a
quote and a backslash, and any other backslash stands for itself.

A numeric expression nests at most `MAX_EXPR_DEPTH` levels of operators and
parentheses; a parenthesised negative literal such as `(-2)` is no level. An
atom declaration's identifier doubles as its propositional variable when the
declaration has no condition body. `false` appears only as an implication
consequent and turns the relation into a conflict. Files are UTF-8 and
newline-agnostic.
"""

from __future__ import annotations

import enum
import math
import re
from bisect import bisect_right
from collections import namedtuple
from itertools import takewhile

from ._record import field, record
from .errors import RoadmapperError
from .model import (
    BinOp,
    Compare,
    COMPARE_OPS,
    Conflict,
    Const,
    Distributed,
    ExpDecay,
    G,
    Implication,
    K,
    Modality,
    Normal,
    NumCondition,
    NumExpr,
    PiecewiseLinear,
    PlateauThenDecay,
    Preference,
    PreferenceKind,
    ProbCompare,
    PROB_INNER_OPS,
    PROB_OUTER_OPS,
    PropVar,
    Q,
    QuantVar,
    Requirement,
    RequirementsDatabase,
    S,
    SatisfactionFn,
    SimpleProp,
    SimpleQuant,
    Softgoal,
    Sort,
    VagueProp,
    Var,
    validity_problems,
)

_UNITS = {"sec": 1.0, "min": 60.0, "hrs": 3600.0}
# Deepest numeric expression the parser accepts, counting operator nesting
# and open parentheses: evaluation, hashing and printing all recurse over it.
MAX_EXPR_DEPTH = 100
_TOO_DEEP = f"expression nested more than {MAX_EXPR_DEPTH} levels deep"
_SORTS = {s.value: s for s in Sort}
_MODS = {"!": Modality.MANDATORY, "?": Modality.OPTIONAL}


@record(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@record(frozen=True)
class ParseDiagnostic:
    severity: Severity
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.severity.value}: {self.message}"


@record
class ParseResult:
    database: RequirementsDatabase | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.database is not None

    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]


# --- lexer ---------------------------------------------------------------------

_PUNCT = (
    "->", ">=", "<=", "!=", "~=",
    ".", ":", "!", "?", "~", "&", ">", "<", "=",
    "(", ")", ",", "+", "-", "*", "/", "^",
)
# One token after optional blanks. When no token group matches, only `blank`
# does, and the character after it starts no token. `re` counts numerals such
# as `½` as letters; `_lex` rejects them where `str.isalpha` would.
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


# kind is "ident", "number", "string", a punctuation mark or "eof".
_Token = namedtuple("_Token", ("kind", "value", "offset"))


class _SourceError(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(message)
        self.offset = offset
        self.message = message


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            value = _number(match, offset)
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
        tokens.append(_Token(kind, value, offset))
    tokens.append(_Token("eof", None, len(text)))
    return tokens


def _number(match: re.Match, offset: int) -> float:
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


# --- parser ---------------------------------------------------------------------

@record
class _Decl:
    kind: str  # "requirement" | "preference" | "satfn"
    offset: int
    requirement: Requirement | None = None
    preference: Preference | None = None
    satfn: tuple[str, SatisfactionFn] | None = None


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # open parentheses and '^' operands being parsed

    def peek(self, offset: int = 0) -> _Token:
        # Look-ahead past the current token happens only while that token is
        # not "eof", and `next` never moves past "eof", so this stays in range.
        return self.tokens[self.pos + offset]

    def next(self) -> _Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise _SourceError(token.offset, f"expected {what}, got {self._describe(token)}")
        return self.next()

    @staticmethod
    def _describe(token: _Token) -> str:
        if token.kind == "eof":
            return "end of input"
        if token.kind in ("ident", "number", "string"):
            return f"{token.kind} {token.value!r}"
        return repr(token.kind)

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def skip_to_next_decl(self, start: int) -> None:
        """Move past the `.` that ends the declaration begun at token `start`,
        unless the declaration has read it already."""
        if self.pos > start and self.tokens[self.pos - 1].kind == ".":
            return
        while not self.at_end():
            if self.next().kind == ".":
                return

    # -- declarations

    def declaration(self) -> _Decl:
        """The next declaration. A model object that rejects its values is an
        error at the declaration's start."""
        self.nesting = 0
        token = self.peek()
        if token.kind != "ident":
            raise _SourceError(
                token.offset, f"expected a declaration, got {self._describe(token)}"
            )
        try:
            if token.value == "pref":
                return self.pref_decl()
            if token.value == "satfn":
                return self.satfn_decl()
            if token.value in _SORTS:
                return self.requirement_decl()
        except (ValueError, RoadmapperError) as exc:
            raise _SourceError(token.offset, str(exc)) from None
        raise _SourceError(
            token.offset,
            f"expected sort letter (k/g/q/s/t), 'pref', or 'satfn', got {token.value!r}",
        )

    def pref_decl(self) -> _Decl:
        start = self.next().offset  # 'pref'
        self.expect(":", "':'")
        left = self.expect("ident", "requirement id").value
        op = self.peek()
        if op.kind not in (">", ">=", "~="):
            raise _SourceError(op.offset, f"expected '>', '>=' or '~=', got {self._describe(op)}")
        self.next()
        kinds = {">": PreferenceKind.STRICT, ">=": PreferenceKind.WEAK, "~=": PreferenceKind.INDIFFERENT}
        right = self.expect("ident", "requirement id").value
        self.expect(".", "'.'")
        return _Decl("preference", start, preference=Preference(kinds[op.kind], left, right))

    def satfn_decl(self) -> _Decl:
        start = self.next().offset  # 'satfn'
        var = self.expect("ident", "variable name").value
        self.expect("=", "'='")
        head = self.expect("ident", "'exp', 'plateau', or 'pwl'")
        self.expect("(", "'('")
        fn: SatisfactionFn
        if head.value == "exp":
            rate = self.number()
            fn = ExpDecay(rate)
        elif head.value == "plateau":
            plateau_end = self.number()
            self.expect(",", "','")
            zero_at = self.number()
            self.expect(",", "','")
            level = self.number()
            fn = PlateauThenDecay(plateau_end, zero_at, level)
        elif head.value == "pwl":
            points = [self.pair()]
            while self.peek().kind == ",":
                self.next()
                points.append(self.pair())
            fn = PiecewiseLinear(tuple(points))
        else:
            raise _SourceError(head.offset, f"unknown satisfaction function {head.value!r}")
        self.expect(")", "')'")
        self.expect(".", "'.'")
        return _Decl("satfn", start, satfn=(var, fn))

    def pair(self) -> tuple[float, float]:
        self.expect("(", "'('")
        x = self.number()
        self.expect(",", "','")
        y = self.number()
        self.expect(")", "')'")
        return (x, y)

    def number(self) -> float:
        negative = False
        if self.peek().kind == "-":
            self.next()
            negative = True
        token = self.expect("number", "a number")
        return -token.value if negative else token.value

    def requirement_decl(self) -> _Decl:
        sort_token = self.next()
        sort = _SORTS[sort_token.value]
        ident_token = self.expect("ident", "requirement id")
        ident = ident_token.value
        if ident == "false":
            raise _SourceError(ident_token.offset, "'false' is reserved")
        modality = Modality.PLAIN
        if self.peek().kind in _MODS:
            modality = _MODS[self.next().kind]
        body = None
        if self.peek().kind == ":":
            self.next()
            body = self.body(sort, ident, sort_token.offset)
        description = None
        if self.peek().kind == "string":
            description = self.next().value
        self.expect(".", "'.'")
        requirement = self.build_requirement(
            sort, ident, modality, body, description, sort_token.offset
        )
        return _Decl("requirement", sort_token.offset, requirement=requirement)

    def body(self, sort: Sort, ident: str, offset: int):
        token = self.peek()
        if token.kind == "~":
            self.next()
            content = self.expect("string", "softgoal content string").value
            return ("content", content)
        if self.relation_ahead():
            return self.relation_body(sort, offset)
        return ("condition", self.condition())

    def relation_ahead(self) -> bool:
        offset = 0
        while True:
            token = self.peek(offset)
            if token.kind in (".", "eof"):
                return False
            if token.kind == "->":
                return True
            offset += 1

    def relation_body(self, sort: Sort, offset: int):
        if sort is not K:
            raise _SourceError(
                offset, "only domain assumptions (k) may relate requirements"
            )
        antecedents = [self.expect("ident", "requirement id").value]
        while self.peek().kind == "&":
            self.next()
            antecedents.append(self.expect("ident", "requirement id").value)
        self.expect("->", "'->'")
        token = self.peek()
        if token.kind == "ident" and token.value == "false":
            self.next()
            return ("conflict", antecedents)
        consequent = self.expect("ident", "requirement id or 'false'").value
        return ("implication", antecedents, consequent)

    def condition(self) -> NumCondition:
        token = self.peek()
        if (
            token.kind == "ident"
            and token.value == "P"
            and self.peek(1).kind == "("
        ):
            return self.prob_condition()
        if token.kind == "ident" and self.peek(1).kind == "~":
            var = self.next().value
            self.next()  # '~'
            head = self.expect("ident", "distribution name")
            if head.value != "Normal":
                raise _SourceError(head.offset, f"unknown distribution {head.value!r}")
            self.expect("(", "'('")
            mean = self.number()
            self.expect(",", "','")
            variance = self.number()
            self.expect(")", "')'")
            return Distributed(QuantVar(var), Normal(mean, variance))
        lhs = self.numexpr()
        op = self.comparison_op()
        rhs = self.numexpr()
        return Compare(lhs, op, rhs)

    def prob_condition(self) -> ProbCompare:
        self.next()  # 'P'
        self.expect("(", "'('")
        var = self.expect("ident", "variable name")
        inner = self.comparison_op()
        if inner not in PROB_INNER_OPS:
            raise _SourceError(var.offset, f"invalid operator {inner!r} inside P(...)")
        bound = self.numexpr()
        self.expect(")", "')'")
        outer_token = self.peek()
        outer = self.comparison_op()
        if outer not in PROB_OUTER_OPS:
            raise _SourceError(outer_token.offset, f"invalid operator {outer!r} after P(...)")
        level = self.numexpr()
        return ProbCompare(QuantVar(var.value), inner, bound, outer, level)

    def comparison_op(self) -> str:
        token = self.peek()
        if token.kind not in COMPARE_OPS:
            raise _SourceError(token.offset, f"expected a comparison operator, got {self._describe(token)}")
        return self.next().kind

    def numexpr(self) -> NumExpr:
        return self.sum()[0]

    # sum, term, factor and primary return an expression and its height.

    def sum(self) -> tuple[NumExpr, int]:
        expr, height = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            right, right_height = self.term()
            expr, height = self.binop(op, expr, right, max(height, right_height))
        return expr, height

    def term(self) -> tuple[NumExpr, int]:
        expr, height = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            right, right_height = self.factor()
            expr, height = self.binop(op, expr, right, max(height, right_height))
        return expr, height

    def factor(self) -> tuple[NumExpr, int]:
        base, height = self.primary()
        if self.peek().kind == "^":
            op = self.next()
            self.enter(op)
            exponent, exponent_height = self.factor()
            self.nesting -= 1
            return self.binop(op, base, exponent, max(height, exponent_height))
        return base, height

    def primary(self) -> tuple[NumExpr, int]:
        token = self.peek()
        if token.kind == "number":
            self.next()
            return Const(token.value), 0
        if token.kind == "-" and self.peek(1).kind == "number":
            self.next()
            return Const(-self.next().value), 0
        if token.kind == "ident":
            self.next()
            return Var(QuantVar(token.value)), 0
        if token.kind == "(":
            self.next()
            if [t.kind for t in self.tokens[self.pos : self.pos + 3]] == ["-", "number", ")"]:
                # `serialize` writes a negative operand as `(-2)`: no new level.
                self.next()
                value = -self.next().value
                self.next()
                return Const(value), 0
            self.enter(token)
            expr = self.sum()
            self.nesting -= 1
            self.expect(")", "')'")
            return expr
        raise _SourceError(token.offset, f"expected a number, variable, or '(', got {self._describe(token)}")

    def enter(self, token: _Token) -> None:
        self.nesting += 1
        if self.nesting > MAX_EXPR_DEPTH:
            raise _SourceError(token.offset, _TOO_DEEP)

    def binop(
        self, op: _Token, left: NumExpr, right: NumExpr, height: int
    ) -> tuple[NumExpr, int]:
        if height >= MAX_EXPR_DEPTH:
            raise _SourceError(op.offset, _TOO_DEEP)
        try:
            return BinOp(op.kind, left, right), height + 1
        except RoadmapperError as exc:
            raise _SourceError(op.offset, str(exc)) from None

    def build_requirement(
        self,
        sort: Sort,
        ident: str,
        modality: Modality,
        body,
        description: str | None,
        offset: int,
    ) -> Requirement:
        if body is None:
            if sort is Q:
                raise _SourceError(offset, "quality constraints need a condition body")
            if sort is S:
                content = description or ident
                return Requirement(ident, Softgoal(VagueProp(content)), modality, description)
            return Requirement(ident, SimpleProp(sort, PropVar(ident)), modality, description)
        tag = body[0]
        if tag == "content":
            if sort is not S:
                raise _SourceError(offset, "only softgoals (s) carry content strings")
            return Requirement(ident, Softgoal(VagueProp(body[1])), modality, description)
        if tag == "condition":
            if sort is S:
                raise _SourceError(offset, "softgoals cannot carry numeric conditions")
            if sort is G:
                raise _SourceError(
                    offset, "goals are propositional; use a quality constraint (q) for conditions"
                )
            return Requirement(ident, SimpleQuant(sort, body[1]), modality, description)
        if tag == "implication":
            _, antecedents, consequent = body
            return Requirement(
                ident, Implication(frozenset(antecedents), consequent), modality, description
            )
        _, antecedents = body
        if len(set(antecedents)) < 2:
            raise _SourceError(offset, "a conflict needs at least two distinct antecedents")
        return Requirement(ident, Conflict(frozenset(antecedents)), modality, description)


def parse(text: str, filename: str = "<input>") -> ParseResult:
    """Parse a `.req` document; error diagnostics imply no database.
    Diagnostics are listed by line and column."""
    # (offset, severity, message) of each diagnostic.
    found: list[tuple[int, Severity, str]] = []
    try:
        tokens = _lex(text)
    except _SourceError as exc:
        found.append((exc.offset, Severity.ERROR, exc.message))
        return ParseResult(None, _diagnostics(text, filename, found))

    parser = _Parser(tokens)
    decls: list[_Decl] = []
    while not parser.at_end():
        start = parser.pos
        try:
            decls.append(parser.declaration())
        except _SourceError as exc:
            found.append((exc.offset, Severity.ERROR, exc.message))
            parser.skip_to_next_decl(start)

    requirements: dict[str, Requirement] = {}
    preferences: list[Preference] = []
    sat_fns: dict[str, SatisfactionFn] = {}
    # The declaration of each requirement id and preference, for problem offsets.
    offsets: dict[str | Preference, int] = {}
    for decl in decls:
        if decl.kind == "requirement":
            req = decl.requirement
            if req.id in requirements:
                found.append((decl.offset, Severity.ERROR, f"duplicate requirement id {req.id!r}"))
                continue
            requirements[req.id] = req
            offsets[req.id] = decl.offset
        elif decl.kind == "preference":
            preferences.append(decl.preference)
            offsets.setdefault(decl.preference, decl.offset)
        else:
            var, fn = decl.satfn
            sat_fns[var] = fn

    for req in sorted(requirements.values(), key=lambda r: r.id):
        if isinstance(req.body, Conflict):
            vague = [
                ref
                for ref in sorted(req.body.antecedents)
                if ref in requirements and isinstance(requirements[ref].body, Softgoal)
            ]
            if vague:
                found.append((
                    offsets[req.id],
                    Severity.WARNING,
                    f"conflict {req.id!r} involves softgoal(s) {vague}; "
                    "softgoal conflicts have no worked interpretation",
                ))

    db = RequirementsDatabase(requirements, frozenset(preferences), sat_fns)
    for problem in validity_problems(db):
        found.append((offsets[problem.subject], Severity.ERROR, problem.message))
    diagnostics = _diagnostics(text, filename, found)
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(db, diagnostics)


def _diagnostics(
    text: str, filename: str, found: list[tuple[int, Severity, str]]
) -> list[ParseDiagnostic]:
    """`found` by position, each offset of `text` turned into its line and
    column; a stable sort keeps the phase order within one offset."""
    if not found:
        return []
    found.sort(key=lambda item: item[0])
    line_starts = [0, *(match.end() for match in re.finditer("\n", text))]
    diagnostics = []
    for offset, severity, message in found:
        line = bisect_right(line_starts, offset)
        span = SourceSpan(filename, line, offset - line_starts[line - 1] + 1)
        diagnostics.append(ParseDiagnostic(severity, span, message))
    return diagnostics


def load_file(path) -> ParseResult:
    """Parse a `.req` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), filename=str(path))


# --- serializer -------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _fmt_number(x: float) -> str:
    return repr(float(x))


def _fmt_expr(expr: NumExpr, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(expr, Const):
        text = _fmt_number(expr.value)
        return f"({text})" if expr.value < 0 and parent_prec > 0 else text
    if isinstance(expr, Var):
        return expr.var.name
    prec = _PRECEDENCE[expr.op]
    left = _fmt_expr(expr.left, prec, right_side=(expr.op == "^"))
    right = _fmt_expr(expr.right, prec, right_side=(expr.op != "^"))
    text = f"{left} {expr.op} {right}"
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def _fmt_condition(cond: NumCondition) -> str:
    if isinstance(cond, Compare):
        return f"{_fmt_expr(cond.lhs)} {cond.op} {_fmt_expr(cond.rhs)}"
    if isinstance(cond, Distributed):
        return (
            f"{cond.var.name} ~ Normal({_fmt_number(cond.dist.mean)}, "
            f"{_fmt_number(cond.dist.variance)})"
        )
    return (
        f"P({cond.var.name} {cond.inner_op} {_fmt_expr(cond.bound)}) "
        f"{cond.outer_op} {_fmt_expr(cond.level)}"
    )


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _fmt_requirement(req: Requirement) -> str:
    mod = {Modality.PLAIN: "", Modality.OPTIONAL: " ?", Modality.MANDATORY: " !"}[req.modality]
    desc = f' "{_escape(req.description)}"' if req.description else ""
    body = req.body
    if isinstance(body, SimpleProp):
        return f"{body.sort.value} {req.id}{mod}{desc}."
    if isinstance(body, SimpleQuant):
        return f"{body.sort.value} {req.id}{mod}: {_fmt_condition(body.cond)}{desc}."
    if isinstance(body, Softgoal):
        return f's {req.id}{mod}: ~ "{_escape(body.content.text)}"{desc}.'
    if isinstance(body, Implication):
        ants = " & ".join(sorted(body.antecedents))
        return f"k {req.id}{mod}: {ants} -> {body.consequent}{desc}."
    ants = " & ".join(sorted(body.antecedents))
    return f"k {req.id}{mod}: {ants} -> false{desc}."


def _fmt_satfn(var: str, fn: SatisfactionFn) -> str:
    if isinstance(fn, ExpDecay):
        spec = f"exp({_fmt_number(fn.rate)})"
    elif isinstance(fn, PlateauThenDecay):
        spec = (
            f"plateau({_fmt_number(fn.plateau_end)}, {_fmt_number(fn.zero_at)}, "
            f"{_fmt_number(fn.level)})"
        )
    else:
        pairs = ", ".join(f"({_fmt_number(x)}, {_fmt_number(y)})" for x, y in fn.points)
        spec = f"pwl({pairs})"
    return f"satfn {var} = {spec}."


def serialize(db: RequirementsDatabase) -> str:
    """Deterministic textual form; `parse(serialize(db))` reproduces `db`."""
    lines = ["// requirements database"]
    for req_id in sorted(db.requirements):
        lines.append(_fmt_requirement(db[req_id]))
    for pref in sorted(db.preferences, key=lambda p: (p.kind.value, p.left, p.right)):
        lines.append(f"pref: {pref.left} {pref.kind.value} {pref.right}.")
    for var in sorted(db.sat_fns):
        lines.append(_fmt_satfn(var, db.sat_fns[var]))
    return "\n".join(lines) + "\n"
