"""Text front ends: actions, licenses, formulas, run files, and DR licenses.

All grammars are plain ASCII and share one lexer, a compiled regular
expression scanned once over the input (run files: once per line, and a
line repeating an earlier line's text after ``@<time>`` only up to it).  Any
other character, including a non-ASCII letter or digit, is a ``ParseError``
at its line and column.  ``#`` starts a comment anywhere.  Reserved words
(``pay render bot issue true P O X G F U``) cannot be used as license names.
"""

from __future__ import annotations

import re
from decimal import Decimal
from operator import itemgetter
from typing import NamedTuple

from .digitalrights import DrLicense, Exactly, Single, Upto
from .formulas import (
    Act,
    ActionExpr,
    Always,
    And,
    Formula,
    Issue,
    Next,
    Not,
    Perm,
    Truth,
    Until,
    f_eventually,
    f_implies,
    f_oblig,
    f_or,
)
from .licenses import (
    BOT,
    Action,
    Atom,
    Concat,
    License,
    Pay,
    Render,
    Star,
    Union,
)
from .runs import Run


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


RESERVED = frozenset(
    {"pay", "render", "bot", "issue", "do", "true", "P", "O", "X", "G", "F", "U"}
)


class Token(NamedTuple):
    kind: str  # "ident" | "number" | "op" | "eof"
    text: str
    line: int
    col: int


# One alternative per lexeme; ``bad`` takes any other character, ASCII or
# not.  The blanks before a lexeme belong to its match, and comments are
# dropped.  A comment that ends the input is part of ``eof``, so end of input
# is reported at its ``#``.
_LEXEME = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>->|[()\[\]{},*|&!=@~])"
    r"|(?P<number>[0-9]+(?:\.[0-9]*)?)"
    r"|(?P<newline>\n)"
    r"|(?P<eof>(?:#[^\n]*)?\Z)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<bad>.))",
    re.ASCII | re.DOTALL,
)
_TEXT_KINDS = frozenset({"ident", "op", "number"})
_tuple_new = tuple.__new__  # builds a Token without the Python-level NamedTuple constructor


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    """Split text into tokens with 1-based line and column numbers, ending in ``eof``."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = first_line, 0
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        if kind in _TEXT_KINDS:
            col = match.start(kind) - line_start + 1
            append(_tuple_new(Token, (kind, match.group(kind), line, col)))
        elif kind == "newline":
            line += 1
            line_start = match.end()
        elif kind == "eof":
            append(_tuple_new(Token, (kind, "", line, match.start(kind) - line_start + 1)))
            break
        elif kind == "bad":
            start = match.start(kind)
            raise ParseError(f"unexpected character {text[start]!r}", line, start - line_start + 1)
    return tokens


class _Stream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._last = len(tokens) - 1  # the eof token

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:  # the position never passes eof
            return self._tokens[self._pos]
        at = self._pos + ahead
        return self._tokens[at if at < self._last else self._last]

    def next(self) -> Token:
        token = self._tokens[self._pos]
        if self._pos < self._last:
            self._pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self._tokens[self._pos]
        if token.text != text:
            self.fail(f"expected {text!r}, found {self._describe(token)}")
        if self._pos < self._last:
            self._pos += 1
        return token

    def fail(self, message: str):
        token = self.peek()
        raise ParseError(message, token.line, token.col)

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def expect_end(self) -> None:
        if not self.at_end():
            self.fail(f"unexpected trailing input {self._describe(self.peek())}")

    @staticmethod
    def _describe(token: Token) -> str:
        return "end of input" if token.kind == "eof" else repr(token.text)


def _parse_name(stream: _Stream, what: str = "name") -> str:
    token = stream.peek()
    if token.kind != "ident" or token.text in RESERVED:
        stream.fail(f"expected a {what}")
    return stream.next().text


def _parse_amount(stream: _Stream) -> Decimal:
    token = stream.peek()
    if token.kind != "number":
        stream.fail("expected a decimal amount")
    stream.next()
    if "." in token.text and len(token.text.split(".")[1]) > 2:
        raise ParseError(
            f"amount {token.text} has more than two fractional digits",
            token.line,
            token.col,
        )
    return Decimal(token.text)


def _parse_natural(stream: _Stream, what: str = "number") -> int:
    token = stream.peek()
    if token.kind != "number" or "." in token.text:
        stream.fail(f"expected a {what}")
    stream.next()
    return int(token.text)


def _starts_action(token: Token) -> bool:
    return token.text in ("pay", "render", "bot")


def _parse_action(stream: _Stream) -> Action:
    token = stream.peek()
    if token.text == "bot":
        stream.next()
        return BOT
    if token.text == "pay":
        stream.next()
        stream.expect("[")
        amount = _parse_amount(stream)
        stream.expect("]")
        return Pay(amount)
    if token.text == "render":
        stream.next()
        stream.expect("[")
        work = _parse_name(stream, "work identifier")
        stream.expect(",")
        device = _parse_name(stream, "device identifier")
        stream.expect("]")
        return Render(work, device)
    stream.fail("expected an action (pay[..], render[..,..], or bot)")


def parse_action(text: str) -> Action:
    stream = _Stream(tokenize(text))
    action = _parse_action(stream)
    stream.expect_end()
    return action


# License grammar: union over concatenation over starred primaries, both
# grouping to the left.  Parsed in one loop that keeps the partial union and
# concatenation of each enclosing parenthesis on a stack, so nesting depth
# costs no recursion.

_ACTION_TOKENS = {"bot": 1, "pay": 4, "render": 6}  # tokens of each action's text
_text = itemgetter(1)  # a token's text


def _parse_license(stream: _Stream) -> License:
    atoms: dict[tuple[str, ...], Atom] = {}  # one atom per distinct action text
    groups: list[tuple] = []  # (union, concatenation) outside each open "("
    union = concat = None
    while True:
        # A primary: open parentheses, then an action.
        token = stream.peek()
        if token.text == "(":
            stream.next()
            groups.append((union, concat))
            union = concat = None
            continue
        if token.text not in _ACTION_TOKENS:
            stream.fail("the license constants 0 and 1 are not part of the surface syntax"
                        if token.kind == "number" else "expected a license")
        tokens, at = stream._tokens, stream._pos
        key = tuple(map(_text, tokens[at:at + _ACTION_TOKENS[token.text]]))
        lic = atoms.get(key)
        if lic is None:
            lic = atoms[key] = Atom(_parse_action(stream))
        else:  # the same tokens parsed into this action before
            stream._pos = at + len(key)
        # Stars, then close parentheses until the next primary or the end.
        while True:
            token = stream.peek()
            while token.text == "*":
                stream.next()
                lic = Star(lic)
                token = stream.peek()
            concat = lic if concat is None else Concat(concat, lic)
            if token.text == "(" or token.text in _ACTION_TOKENS:
                break
            if token.text == "|":
                stream.next()
                union = concat if union is None else Union(union, concat)
                concat = None
                break
            lic = concat if union is None else Union(union, concat)
            if not groups:
                return lic
            stream.expect(")")
            union, concat = groups.pop()


def parse_license(text: str) -> License:
    stream = _Stream(tokenize(text))
    lic = _parse_license(stream)
    stream.expect_end()
    return lic


# Formula grammar, loosest to tightest: ->, |, &, U, unary (! X G F), atoms.
# -> and U group to the right, | and & to the left.  Parsed by precedence
# climbing on explicit stacks, so nesting depth costs no recursion.

_PREFIX = {"!": Not, "X": Next, "G": Always, "F": f_eventually}
# (precedence, groups to the right, constructor); prefix operators bind
# tighter than every infix one.
_INFIX = {
    "->": (1, True, f_implies),
    "|": (2, False, f_or),
    "&": (3, False, And),
    "U": (4, True, Until),
}
_PREFIX_PRECEDENCE = 5
_GROUP = None  # an open parenthesis on the operator stack


def _reduce(values: list[Formula], ops: list, precedence: int = 0, right: bool = False) -> None:
    """Apply the stacked operators that bind tighter than an incoming one.

    The incoming operator has the given precedence and grouping; an equal
    precedence binds tighter when it groups to the left.  Stops at an open
    parenthesis; precedence 0 applies every operator down to it.
    """
    while ops and ops[-1] is not _GROUP:
        stacked, build, arity = ops[-1]
        if stacked < precedence or (stacked == precedence and right):
            return
        ops.pop()
        if arity == 1:
            values[-1] = build(values[-1])
        else:
            operand = values.pop()
            values[-1] = build(values[-1], operand)


def _parse_formula(stream: _Stream) -> Formula:
    values: list[Formula] = []
    ops: list = []  # _GROUP or (precedence, constructor, arity)
    while True:
        # An operand: prefix operators and open parentheses, then an atom.
        while True:
            token = stream.peek()
            if token.text in _PREFIX:
                ops.append((_PREFIX_PRECEDENCE, _PREFIX[token.text], 1))
            elif token.text == "(" and not _starts_pair(stream):
                ops.append(_GROUP)
            else:
                break
            stream.next()
        values.append(_parse_formula_atom(stream))
        # Close parentheses until an infix operator or the end of the formula.
        infix = _INFIX.get(stream.peek().text)
        while infix is None:
            _reduce(values, ops)
            if not ops:
                return values[0]
            stream.expect(")")
            ops.pop()
            infix = _INFIX.get(stream.peek().text)
        stream.next()
        precedence, right, build = infix
        _reduce(values, ops, precedence, right)
        ops.append((precedence, build, 2))


def _starts_pair(stream: _Stream) -> bool:
    """Whether the ``(`` ahead opens an action pair rather than a group."""
    after = stream.peek(1)
    return after.text == "~" or _starts_action(after)


def _parse_action_pair(stream: _Stream) -> ActionExpr:
    stream.expect("(")
    positive = True
    if stream.peek().text == "~":
        stream.next()
        positive = False
    action = _parse_action(stream)
    stream.expect(",")
    name = _parse_name(stream)
    stream.expect(")")
    return ActionExpr(positive, action, name)


def _parse_formula_atom(stream: _Stream) -> Formula:
    token = stream.peek()
    if token.text == "true":
        stream.next()
        return Truth()
    if token.text == "issue":
        stream.next()
        stream.expect("(")
        name = _parse_name(stream)
        stream.expect(",")
        lic = _parse_license(stream)
        stream.expect(")")
        return Issue(name, lic)
    if token.text == "P":
        stream.next()
        return Perm(_parse_action_pair(stream))
    if token.text == "O":
        stream.next()
        expr = _parse_action_pair(stream)
        if not expr.positive:
            stream.fail("obligations take a plain action, not a complement")
        return f_oblig(expr.action, expr.name)
    if token.text == "(":
        return Act(_parse_action_pair(stream))
    stream.fail("expected a formula")


def parse_formula(text: str) -> Formula:
    stream = _Stream(tokenize(text))
    formula = _parse_formula(stream)
    stream.expect_end()
    return formula


# Run files are line oriented (lines end at "\n" alone):
#   @<t> issue <name> = <license>
#   @<t> do <name> <action>
# A file repeats a few texts after the time many times over, so each distinct
# tail is parsed once: a line whose frame is ``@`` and a natural reads its
# ``(is_issue, name, license or action)`` from the first line with the same
# tail.  Only lines that parsed are remembered, so errors are unchanged.

def parse_run(text: str) -> Run:
    issuances: list[tuple[int, str, License]] = []
    actions: list[tuple[int, str, Action]] = []
    tails: dict[str, tuple[bool, str, License | Action]] = {}
    horizon = 0  # the last event time
    match = _LEXEME.match
    for lineno, raw in enumerate(text.split("\n"), start=1):
        at = match(raw)
        kind = at.lastgroup
        if kind == "eof":  # blanks and a comment at most
            continue
        tail = entry = None
        if kind == "op" and at[kind] == "@":
            number = match(raw, at.end())
            digits = number["number"]
            if digits is not None and "." not in digits:
                tail = raw[number.end():]
                entry = tails.get(tail)
        if entry is None:
            stream = _Stream(tokenize(raw, first_line=lineno))
            stream.expect("@")
            time = _parse_natural(stream, "time")
            keyword = stream.peek()
            if keyword.text == "issue":
                stream.next()
                name = _parse_name(stream)
                stream.expect("=")
                entry = (True, name, _parse_license(stream))
            elif keyword.text == "do":
                stream.next()
                name = _parse_name(stream)
                entry = (False, name, _parse_action(stream))
            else:
                stream.fail("expected 'issue' or 'do'")
            stream.expect_end()
            if tail is not None:
                tails[tail] = entry
        else:
            time = int(digits)
        is_issue, name, payload = entry
        (issuances if is_issue else actions).append((time, name, payload))
        if time > horizon:
            horizon = time
    return Run(horizon, tuple(issuances), tuple(actions))


# DR licenses:  for [upto] [m] p pay x (upfront|flatrate|peruse) for {..} on {..}

def _parse_ident_set(stream: _Stream) -> frozenset[str]:
    stream.expect("{")
    names = [_parse_name(stream, "identifier")]
    while stream.peek().text == ",":
        stream.next()
        names.append(_parse_name(stream, "identifier"))
    stream.expect("}")
    return frozenset(names)


def parse_dr(text: str) -> DrLicense:
    stream = _Stream(tokenize(text))
    stream.expect("for")
    if stream.peek().text == "upto":
        stream.next()
        count = _parse_natural(stream, "period count")
        period = _parse_natural(stream, "period length")
        repetition = Upto(count, period)
    else:
        first = _parse_natural(stream, "period length")
        if stream.peek().kind == "number":
            period = _parse_natural(stream, "period length")
            repetition = Exactly(first, period)
        else:
            repetition = Single(first)
    stream.expect("pay")
    amount = _parse_amount(stream)
    schedule = stream.peek().text
    if schedule not in ("upfront", "flatrate", "peruse"):
        stream.fail("expected a payment schedule (upfront, flatrate, or peruse)")
    stream.next()
    stream.expect("for")
    works = _parse_ident_set(stream)
    stream.expect("on")
    devices = _parse_ident_set(stream)
    stream.expect_end()
    return DrLicense(repetition, amount, schedule, works, devices)
