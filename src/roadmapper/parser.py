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

Numeric literals accept the unit suffixes `sec`, `min`, and `hrs`, normalized
to seconds at parse time. A numeric expression nests at most `MAX_EXPR_DEPTH`
levels of operators and parentheses; a parenthesised negative literal such as
`(-2)` is no level. An atom declaration's identifier doubles as its
propositional variable when the declaration has no condition body. `false`
appears only as an implication consequent and turns the relation into a
conflict. Files are UTF-8 and newline-agnostic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: Severity
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.severity.value}: {self.message}"


@dataclass
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


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_@"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_@"


def _lex(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def span() -> SourceSpan:
        return SourceSpan(filename, line, col)

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "/" and text[i : i + 2] == "//":
            while i < n and text[i] != "\n":
                advance()
            continue
        start = span()
        if ch == '"':
            advance()
            chars: list[str] = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n and text[i + 1] in ('"', "\\"):
                    chars.append(text[i + 1])
                    advance(2)
                else:
                    chars.append(text[i])
                    advance()
            if i >= n:
                raise _LexError(start, "unterminated string literal")
            advance()
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
            advance(j - i)
            if i < n and text[i].isalpha():
                k = i
                while k < n and text[k].isalpha():
                    k += 1
                suffix = text[i:k]
                if suffix not in _UNITS:
                    raise _LexError(start, f"unknown unit suffix {suffix!r}")
                value *= _UNITS[suffix]
                advance(k - i)
            tokens.append(_Token("number", value, start))
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append(_Token("ident", text[i:j], start))
            advance(j - i)
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(_Token(punct, punct, start))
                advance(len(punct))
                break
        else:
            raise _LexError(start, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", None, span()))
    return tokens


# --- parser ---------------------------------------------------------------------

class _ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(message)
        self.span = span
        self.message = message


@dataclass
class _Decl:
    kind: str  # "requirement" | "preference" | "satfn"
    span: SourceSpan
    requirement: Requirement | None = None
    preference: Preference | None = None
    satfn: tuple[str, SatisfactionFn] | None = None


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # open parentheses and '^' operands being parsed

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> _Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise _ParseError(token.span, f"expected {what}, got {self._describe(token)}")
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

    def skip_to_next_decl(self) -> None:
        while not self.at_end():
            if self.next().kind == ".":
                return

    # -- declarations

    def declaration(self) -> _Decl:
        self.nesting = 0
        token = self.peek()
        if token.kind != "ident":
            raise _ParseError(token.span, f"expected a declaration, got {self._describe(token)}")
        if token.value == "pref":
            return self.pref_decl()
        if token.value == "satfn":
            return self.satfn_decl()
        if token.value in _SORTS:
            return self.requirement_decl()
        raise _ParseError(
            token.span,
            f"expected sort letter (k/g/q/s/t), 'pref', or 'satfn', got {token.value!r}",
        )

    def pref_decl(self) -> _Decl:
        start = self.next().span  # 'pref'
        self.expect(":", "':'")
        left = self.expect("ident", "requirement id").value
        op = self.peek()
        if op.kind not in (">", ">=", "~="):
            raise _ParseError(op.span, f"expected '>', '>=' or '~=', got {self._describe(op)}")
        self.next()
        kinds = {">": PreferenceKind.STRICT, ">=": PreferenceKind.WEAK, "~=": PreferenceKind.INDIFFERENT}
        right = self.expect("ident", "requirement id").value
        self.expect(".", "'.'")
        return _Decl("preference", start, preference=Preference(kinds[op.kind], left, right))

    def satfn_decl(self) -> _Decl:
        start = self.next().span  # 'satfn'
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
            raise _ParseError(head.span, f"unknown satisfaction function {head.value!r}")
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
            raise _ParseError(ident_token.span, "'false' is reserved")
        modality = Modality.PLAIN
        if self.peek().kind in _MODS:
            modality = _MODS[self.next().kind]
        body = None
        if self.peek().kind == ":":
            self.next()
            body = self.body(sort, ident, sort_token.span)
        description = None
        if self.peek().kind == "string":
            description = self.next().value
        self.expect(".", "'.'")
        requirement = self.build_requirement(sort, ident, modality, body, description, sort_token.span)
        return _Decl("requirement", sort_token.span, requirement=requirement)

    def body(self, sort: Sort, ident: str, span: SourceSpan):
        token = self.peek()
        if token.kind == "~":
            self.next()
            content = self.expect("string", "softgoal content string").value
            return ("content", content)
        if self.relation_ahead():
            return self.relation_body(sort, span)
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

    def relation_body(self, sort: Sort, span: SourceSpan):
        if sort is not K:
            raise _ParseError(
                span, "only domain assumptions (k) may relate requirements"
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
                raise _ParseError(head.span, f"unknown distribution {head.value!r}")
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
            raise _ParseError(var.span, f"invalid operator {inner!r} inside P(...)")
        bound = self.numexpr()
        self.expect(")", "')'")
        outer_token = self.peek()
        outer = self.comparison_op()
        if outer not in PROB_OUTER_OPS:
            raise _ParseError(outer_token.span, f"invalid operator {outer!r} after P(...)")
        level = self.numexpr()
        return ProbCompare(QuantVar(var.value), inner, bound, outer, level)

    def comparison_op(self) -> str:
        token = self.peek()
        if token.kind not in COMPARE_OPS:
            raise _ParseError(token.span, f"expected a comparison operator, got {self._describe(token)}")
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
            if [self.peek(i).kind for i in range(3)] == ["-", "number", ")"]:
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
        raise _ParseError(token.span, f"expected a number, variable, or '(', got {self._describe(token)}")

    def enter(self, token: _Token) -> None:
        self.nesting += 1
        if self.nesting > MAX_EXPR_DEPTH:
            raise _ParseError(token.span, _TOO_DEEP)

    def binop(
        self, op: _Token, left: NumExpr, right: NumExpr, height: int
    ) -> tuple[NumExpr, int]:
        if height >= MAX_EXPR_DEPTH:
            raise _ParseError(op.span, _TOO_DEEP)
        try:
            return BinOp(op.kind, left, right), height + 1
        except RoadmapperError as exc:
            raise _ParseError(op.span, str(exc)) from None

    def build_requirement(
        self,
        sort: Sort,
        ident: str,
        modality: Modality,
        body,
        description: str | None,
        span: SourceSpan,
    ) -> Requirement:
        try:
            if body is None:
                if sort is Q:
                    raise _ParseError(span, "quality constraints need a condition body")
                if sort is S:
                    content = description or ident
                    return Requirement(ident, Softgoal(VagueProp(content)), modality, description)
                return Requirement(ident, SimpleProp(sort, PropVar(ident)), modality, description)
            tag = body[0]
            if tag == "content":
                if sort is not S:
                    raise _ParseError(span, "only softgoals (s) carry content strings")
                return Requirement(ident, Softgoal(VagueProp(body[1])), modality, description)
            if tag == "condition":
                if sort is S:
                    raise _ParseError(span, "softgoals cannot carry numeric conditions")
                if sort is G:
                    raise _ParseError(
                        span, "goals are propositional; use a quality constraint (q) for conditions"
                    )
                return Requirement(ident, SimpleQuant(sort, body[1]), modality, description)
            if tag == "implication":
                _, antecedents, consequent = body
                return Requirement(
                    ident, Implication(frozenset(antecedents), consequent), modality, description
                )
            _, antecedents = body
            if len(set(antecedents)) < 2:
                raise _ParseError(span, "a conflict needs at least two distinct antecedents")
            return Requirement(ident, Conflict(frozenset(antecedents)), modality, description)
        except (ValueError, RoadmapperError) as exc:
            raise _ParseError(span, str(exc)) from None


def parse(text: str, filename: str = "<input>") -> ParseResult:
    """Parse a `.req` document; error diagnostics imply no database.
    Diagnostics are listed by line and column."""
    diagnostics: list[ParseDiagnostic] = []
    try:
        tokens = _lex(text, filename)
    except _LexError as exc:
        diagnostics.append(ParseDiagnostic(Severity.ERROR, exc.span, exc.message))
        return ParseResult(None, diagnostics)

    parser = _Parser(tokens)
    decls: list[_Decl] = []
    while not parser.at_end():
        try:
            decls.append(parser.declaration())
        except _ParseError as exc:
            diagnostics.append(ParseDiagnostic(Severity.ERROR, exc.span, exc.message))
            parser.skip_to_next_decl()

    requirements: dict[str, Requirement] = {}
    preferences: list[Preference] = []
    sat_fns: dict[str, SatisfactionFn] = {}
    # The declaration of each requirement id and preference, for problem spans.
    spans: dict[str | Preference, SourceSpan] = {}
    for decl in decls:
        if decl.kind == "requirement":
            req = decl.requirement
            if req.id in requirements:
                diagnostics.append(
                    ParseDiagnostic(
                        Severity.ERROR, decl.span, f"duplicate requirement id {req.id!r}"
                    )
                )
                continue
            requirements[req.id] = req
            spans[req.id] = decl.span
        elif decl.kind == "preference":
            preferences.append(decl.preference)
            spans.setdefault(decl.preference, decl.span)
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
                diagnostics.append(
                    ParseDiagnostic(
                        Severity.WARNING,
                        spans[req.id],
                        f"conflict {req.id!r} involves softgoal(s) {vague}; "
                        "softgoal conflicts have no worked interpretation",
                    )
                )

    db = RequirementsDatabase(requirements, frozenset(preferences), sat_fns)
    for problem in validity_problems(db):
        diagnostics.append(
            ParseDiagnostic(Severity.ERROR, spans[problem.subject], problem.message)
        )
    # By position; a stable sort keeps the phase order within one span.
    diagnostics.sort(key=lambda d: (d.span.line, d.span.column))
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(db, diagnostics)


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
