"""Branching-time formulas with synchronized-until operators.

Core node kinds: TRUE, ATOM, NOT, AND, EX, EU, AU, plus the synchronized
variants UA ("until, all paths, one shared bound") and UE ("until, per-level
witnesses, one shared bound").  Everything else (or, false, F/G shorthands,
FA/FE/GA/GE) is surface sugar removed at parse time.

Precedence, loosest to tightest: the until family (UA, UE, and the mixfix
``E φ U ψ`` / ``A φ U ψ``), then ``|``, then ``&``, then prefix operators.
UA/UE associate to the left; the second operand of a mixfix until extends as
far right as possible.  Parenthesize to override.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import FormulaSyntaxError


class Kind(Enum):
    TRUE = "true"
    ATOM = "atom"
    NOT = "not"
    AND = "and"
    EX = "EX"
    EU = "EU"
    AU = "AU"
    UA = "UA"
    UE = "UE"


SYNC_KINDS = frozenset({Kind.UA, Kind.UE})


@dataclass(frozen=True)
class Formula:
    kind: Kind
    children: tuple["Formula", ...] = ()
    name: str = ""

    def __post_init__(self):
        # the generated hash's value, once: the oracle's memos are keyed by formula
        object.__setattr__(self, "_hash", hash((self.kind, self.children, self.name)))
        # operators on the longest path down to a leaf, which the parser bounds
        object.__setattr__(
            self, "depth", 1 + max(c.depth for c in self.children) if self.children else 0)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def synchronized(self) -> bool:
        """Whether a UA or UE occurs in it, worked out on first use."""
        return self.kind in SYNC_KINDS or any(c.synchronized for c in self.children)


TRUE = Formula(Kind.TRUE)


def atom(name: str) -> Formula:
    return Formula(Kind.ATOM, name=name)


def lnot(f: Formula) -> Formula:
    return Formula(Kind.NOT, (f,))


def land(a: Formula, b: Formula) -> Formula:
    return Formula(Kind.AND, (a, b))


def lor(a: Formula, b: Formula) -> Formula:
    return lnot(land(lnot(a), lnot(b)))


FALSE = lnot(TRUE)


def ex(f: Formula) -> Formula:
    return Formula(Kind.EX, (f,))


def eu(a: Formula, b: Formula) -> Formula:
    return Formula(Kind.EU, (a, b))


def au(a: Formula, b: Formula) -> Formula:
    return Formula(Kind.AU, (a, b))


def ua(a: Formula, b: Formula) -> Formula:
    return Formula(Kind.UA, (a, b))


def ue(a: Formula, b: Formula) -> Formula:
    return Formula(Kind.UE, (a, b))


def subformulas(f: Formula) -> list[Formula]:
    """Each distinct subtree exactly once, children before parents."""
    seen: dict[Formula, None] = {}
    _collect(f, seen)
    return list(seen)


def _collect(g: Formula, seen: dict[Formula, None]) -> None:
    if g not in seen:
        for c in g.children:
            _collect(c, seen)
        seen[g] = None


def formula_atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if g.kind is Kind.ATOM)


# ---------------------------------------------------------------------------
# Parsing

_KEYWORDS = {
    "true", "false", "E", "A", "U", "EX", "EF", "EG", "AF", "AG",
    "FA", "FE", "GA", "GE", "UA", "UE",
}
_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[!&|()])|(?P<bad>\S))")


@dataclass
class _Token:
    kind: str  # keyword name, 'ident', punct char, or 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if not m or m.end() == pos:
                break
            col = m.start("ident") if m.group("ident") else m.start("punct") if m.group("punct") else m.start("bad")
            if m.group("bad"):
                raise FormulaSyntaxError(f"unexpected character {m.group('bad')!r}", lineno, col + 1)
            if m.group("ident"):
                word = m.group("ident")
                kind = word if word in _KEYWORDS else "ident"
                tokens.append(_Token(kind, word, lineno, col + 1))
            else:
                tokens.append(_Token(m.group("punct"), m.group("punct"), lineno, col + 1))
            pos = m.end()
    last_line = len(text.splitlines()) or 1
    tokens.append(_Token("eof", "", last_line, len(text.splitlines()[-1]) + 1 if text.splitlines() else 1))
    return tokens


MAX_DEPTH = 100


class _Parser:
    """Recursive descent.  Open parentheses and prefix operators (``nesting``)
    and the depth of every node built are bounded by ``MAX_DEPTH``, so a
    deeply nested formula is rejected as input before the parser or the
    recursive evaluators run out of stack."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"unexpected {tok.text or 'end of input'!r}", {kind})
        return self.take()

    def fail(self, message: str, expected: set[str]):
        tok = self.peek()
        raise FormulaSyntaxError(message, tok.line, tok.column, frozenset(expected))

    def enter(self) -> None:
        """Take a ``(`` or a prefix operator, one nesting level deeper."""
        tok = self.take()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise FormulaSyntaxError(
                f"more than {MAX_DEPTH} nested parentheses and prefix operators",
                tok.line, tok.column)

    def leave(self, f: Formula, tok: _Token) -> Formula:
        """Close the level ``tok`` opened on the node ``f`` built there."""
        self.nesting -= 1
        return self.node(f, tok)

    @staticmethod
    def node(f: Formula, tok: _Token) -> Formula:
        """``f``, built at operator ``tok``, if it is at most ``MAX_DEPTH`` deep."""
        if f.depth > MAX_DEPTH:
            raise FormulaSyntaxError(
                f"formula more than {MAX_DEPTH} operators deep", tok.line, tok.column)
        return f

    # until-family level (loosest)
    def parse_formula(self) -> Formula:
        left = self.parse_or()
        while self.peek().kind in ("UA", "UE"):
            tok = self.take()
            right = self.parse_or()
            left = self.node(ua(left, right) if tok.kind == "UA" else ue(left, right), tok)
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek().kind == "|":
            tok = self.take()
            left = self.node(lor(left, self.parse_and()), tok)
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        while self.peek().kind == "&":
            tok = self.take()
            left = self.node(land(left, self.parse_unary()), tok)
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.enter()
            return self.leave(lnot(self.parse_unary()), tok)
        if tok.kind == "EX":
            self.enter()
            return self.leave(ex(self.parse_unary()), tok)
        if tok.kind in ("EF", "AF", "FA", "FE"):
            self.enter()
            arg = self.parse_unary()
            return self.leave({"EF": eu, "AF": au, "FA": ua, "FE": ue}[tok.kind](TRUE, arg), tok)
        if tok.kind in ("EG", "AG", "GA", "GE"):
            self.enter()
            arg = self.parse_unary()
            # each G-form is the negated dual F-form applied to the negation
            dual = {"EG": au, "AG": eu, "GA": ue, "GE": ua}[tok.kind]
            return self.leave(lnot(dual(TRUE, lnot(arg))), tok)
        if tok.kind in ("E", "A"):
            self.enter()
            first = self.parse_or()
            self.expect("U")
            second = self.parse_formula()
            return self.leave(eu(first, second) if tok.kind == "E" else au(first, second), tok)
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "true":
            self.take()
            return TRUE
        if tok.kind == "false":
            self.take()
            return FALSE
        if tok.kind == "ident":
            self.take()
            return atom(tok.text)
        if tok.kind == "(":
            self.enter()
            inner = self.parse_formula()
            self.expect(")")
            self.nesting -= 1
            return inner
        self.fail(
            f"unexpected {tok.text or 'end of input'!r}",
            {"true", "false", "identifier", "(", "!", "EX", "E", "A"},
        )


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    result = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input {tok.text!r}", {"end of input"})
    return result


# ---------------------------------------------------------------------------
# Printing

_PREC_UNTIL, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 0, 1, 2, 3, 4


def _prec(f: Formula) -> int:
    if f.kind in (Kind.TRUE, Kind.ATOM):
        return _PREC_ATOM
    if f.kind in (Kind.NOT, Kind.EX):
        return _PREC_UNARY
    if f.kind is Kind.AND:
        return _PREC_AND
    return _PREC_UNTIL  # EU/AU/UA/UE


def _wrap(f: Formula, minimum: int) -> str:
    text = pretty(f)
    return f"({text})" if _prec(f) < minimum else text


def pretty(f: Formula) -> str:
    """Concrete syntax that parses back to the same tree."""
    if f.kind is Kind.TRUE:
        return "true"
    if f.kind is Kind.ATOM:
        return f.name
    if f.kind is Kind.NOT:
        return "!" + _wrap(f.children[0], _PREC_UNARY)
    if f.kind is Kind.EX:
        return "EX " + _wrap(f.children[0], _PREC_UNARY)
    if f.kind is Kind.AND:
        a, b = f.children
        return _wrap(a, _PREC_AND) + " & " + _wrap(b, _PREC_UNARY)
    if f.kind in (Kind.EU, Kind.AU):
        a, b = f.children
        quant = "E" if f.kind is Kind.EU else "A"
        # the second operand re-parses greedily, so it never needs parens
        return f"{quant} {_wrap(a, _PREC_OR)} U {pretty(b)}"
    if f.kind in (Kind.UA, Kind.UE):
        a, b = f.children
        left = _wrap(a, _PREC_OR)  # any until-family operand gets parens
        right = f"({pretty(b)})" if b.kind in (Kind.UA, Kind.UE) else pretty(b) if _prec(b) == _PREC_UNTIL else _wrap(b, _PREC_OR)
        return f"{left} {f.kind.value} {right}"
    raise AssertionError(f.kind)
