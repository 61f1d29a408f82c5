"""Text front ends: actions, licenses, formulas, run files, and DR licenses.

All grammars are plain ASCII.  Tokens are their texts: one ``findall`` of a
compiled lexer regex splits the input into token texts, and each parser reads
that list with an int cursor.  Positions are computed only on an error, by
lexing the same text again with lines and columns (:func:`tokenize`), which
reports any other character first, a non-ASCII letter or digit too, as a
``ParseError`` at its line and column.  A run file is scanned in one pass by
a regex that splits each line's ``@<time>`` from the text after it; each
distinct such text is parsed once per file.  ``#`` starts a comment
anywhere.  Reserved words (``pay render bot issue do true P O X G F U``)
cannot be used as license names, works or devices.

Every license is parsed through one process-wide map from its token texts
(joined by one blank) to one ``License`` object: a run line's license, an
``issue(n, L)`` atom's and ``parse_license``'s text.  Equal license texts,
in a run file, in a formula or in a later call, give one shared (immutable)
object, whose hash is computed once and which the automata and the
evaluator meet by identity.
Where a license's end is known before it is parsed (the end of a run line,
the ``)`` that closes ``issue(`` at depth 0), its tokens are looked up
first.  Only texts that parsed as a whole license are stored, so no error
depends on what was parsed before.  The map keeps the ``LICENSES_KEPT``
texts used most recently, and with them their automata, which each license
object keeps (:func:`lict.automata.padded_nfa`).
"""

from __future__ import annotations

import re
from decimal import Decimal
from functools import lru_cache
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


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    """Split text into tokens with 1-based line and column numbers, ending in ``eof``."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = first_line, 0
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        if kind in _TEXT_KINDS:
            col = match.start(kind) - line_start + 1
            append(Token(kind, match.group(kind), line, col))
        elif kind == "newline":
            line += 1
            line_start = match.end()
        elif kind == "eof":
            append(Token(kind, "", line, match.start(kind) - line_start + 1))
            break
        elif kind == "bad":
            start = match.start(kind)
            raise ParseError(f"unexpected character {text[start]!r}", line, start - line_start + 1)
    return tokens


# A parse reads token texts, not Token tuples: one findall of _TOKEN gives
# each token's text, blanks and line breaks skipped, and a comment as one
# text that is dropped.  Any character no lexeme starts with is a token of
# its own, which no grammar accepts; so a parse fails on it, and the error
# path's tokenize reports it.  The texts end in "", the end of input.
_TOKEN = re.compile(r"#[^\n]*|[A-Za-z_][A-Za-z0-9_]*|[0-9]+(?:\.[0-9]*)?|->|[^ \t\r\n]")


def _token_texts(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    if "#" in text:
        tokens = [token for token in tokens if token[0] != "#"]
    tokens.append("")
    return tokens


_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")


class _Syntax(Exception):
    """A grammar error at a token index: ``(index, message)``."""


def _located(text: str, first_line: int, index: int, message: str) -> ParseError:
    """The error at the ``index``-th token of ``text``, at that token's line and column.

    Lexing the text again with positions reports a character outside the
    grammar first, wherever it stands, as a lexer run before the parse would.
    """
    tokens = tokenize(text, first_line)
    token = tokens[min(index, len(tokens) - 1)]
    return ParseError(message, token.line, token.col)


def _expect(tokens: list[str], pos: int, text: str) -> int:
    """The position after the token ``text`` expected at ``pos``."""
    found = tokens[pos]
    if found != text:
        raise _Syntax(pos, f"expected {text!r}, found {repr(found) if found else 'end of input'}")
    return pos + 1


def _expect_end(tokens: list[str], pos: int) -> None:
    if tokens[pos]:
        raise _Syntax(pos, f"unexpected trailing input {tokens[pos]!r}")


def _read(text: str, read):
    """``read(tokens, 0)`` over the whole of ``text``; its value, or a located ``ParseError``."""
    tokens = _token_texts(text)
    try:
        value, pos = read(tokens, 0)
        _expect_end(tokens, pos)
    except _Syntax as err:
        raise _located(text, 1, *err.args) from None
    except ValueError:  # an over-long number
        tokenize(text)
        raise
    return value


def _name(tokens: list[str], pos: int, what: str = "name") -> str:
    text = tokens[pos]
    if text[:1] not in _NAME_START or text in RESERVED:
        raise _Syntax(pos, f"expected a {what}")
    return text


def _amount(tokens: list[str], pos: int) -> Decimal:
    text = tokens[pos]
    if text[:1] not in _DIGITS:
        raise _Syntax(pos, "expected a decimal amount")
    if len(text.partition(".")[2]) > 2:
        raise _Syntax(pos, f"amount {text} has more than two fractional digits")
    return Decimal(text)


def _natural(tokens: list[str], pos: int, what: str) -> int:
    text = tokens[pos]
    if text[:1] not in _DIGITS or "." in text:
        raise _Syntax(pos, f"expected a {what}")
    return int(text)


def _action(tokens: list[str], pos: int) -> tuple[Action, int]:
    """The action at ``pos``, and the position after it."""
    word = tokens[pos]
    if word == "bot":
        return BOT, pos + 1
    if word == "pay":
        _expect(tokens, pos + 1, "[")
        amount = _amount(tokens, pos + 2)
        _expect(tokens, pos + 3, "]")
        return Pay(amount), pos + 4
    if word == "render":
        _expect(tokens, pos + 1, "[")
        work = _name(tokens, pos + 2, "work identifier")
        _expect(tokens, pos + 3, ",")
        device = _name(tokens, pos + 4, "device identifier")
        _expect(tokens, pos + 5, "]")
        return Render(work, device), pos + 6
    raise _Syntax(pos, "expected an action (pay[..], render[..,..], or bot)")


def parse_action(text: str) -> Action:
    return _read(text, _action)


# License grammar: union over concatenation over starred primaries, both
# grouping to the left.  Parsed in one loop that keeps the partial union and
# concatenation of each enclosing parenthesis on a stack, so nesting depth
# costs no recursion.

_ACTION_TOKENS = {"bot": 1, "pay": 4, "render": 6}  # tokens of each action's text


def _license(tokens: list[str], pos: int) -> tuple[License, int]:
    atoms: dict[tuple[str, ...], Atom] = {}  # one atom per distinct action text
    groups: list[tuple] = []  # (union, concatenation) outside each open "("
    union = concat = None
    while True:
        # A primary: open parentheses, then an action.
        token = tokens[pos]
        if token == "(":
            pos += 1
            groups.append((union, concat))
            union = concat = None
            continue
        width = _ACTION_TOKENS.get(token)
        if width is None:
            raise _Syntax(pos, "the license constants 0 and 1 are not part of the surface syntax"
                          if token[:1] in _DIGITS else "expected a license")
        key = tuple(tokens[pos:pos + width])
        lic = atoms.get(key)
        if lic is None:
            action, pos = _action(tokens, pos)
            lic = atoms[key] = Atom(action)
        else:  # the same tokens parsed into this action before
            pos += width
        # Stars, then close parentheses until the next primary or the end.
        while True:
            token = tokens[pos]
            while token == "*":
                pos += 1
                lic = Star(lic)
                token = tokens[pos]
            concat = lic if concat is None else Concat(concat, lic)
            if token == "(" or token in _ACTION_TOKENS:
                break
            if token == "|":
                pos += 1
                union = concat if union is None else Union(union, concat)
                concat = None
                break
            lic = concat if union is None else Union(union, concat)
            if not groups:
                return lic, pos
            pos = _expect(tokens, pos, ")")
            union, concat = groups.pop()


# How many license texts the map keeps, the least recently used evicted
# first: far above the handful of licenses one command reads, and bounded,
# so a long session or library caller does not grow without end.
LICENSES_KEPT = 512


# One license object per distinct license text (see the module docstring).
# The key is the token texts joined by one blank, which no token holds.  A
# text that does not parse as a whole license raises, so it is not stored.
@lru_cache(maxsize=LICENSES_KEPT)
def _license_of(key: str) -> License:
    tokens = key.split(" ")
    tokens.append("")
    lic, pos = _license(tokens, 0)
    _expect_end(tokens, pos)
    return lic


def _shared_license(tokens: list[str], pos: int, end: int) -> tuple[License, int]:
    """The license at ``pos``, and the position after it, where it should end at ``end``.

    The tokens before ``end`` are looked up as one license text.  Where they
    are not one, the license is parsed in place, so the error is met where
    it stands.
    """
    try:
        return _license_of(" ".join(tokens[pos:end])), end
    except _Syntax:
        return _license(tokens, pos)


def _closing(tokens: list[str], pos: int) -> int:
    """The index of the first ``)`` from ``pos`` on that no ``(`` from ``pos`` on opens, else of the end."""
    depth = 0  # the "(" seen and not yet closed
    for close in range(pos, len(tokens)):
        token = tokens[close]
        if token == ")":
            if not depth:
                return close
            depth -= 1
        elif token == "(":
            depth += 1
    return len(tokens) - 1


def parse_license(text: str) -> License:
    return _read(text, lambda tokens, pos: _shared_license(tokens, pos, len(tokens) - 1))


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
_PAIR_STARTS = frozenset({"~", "pay", "render", "bot"})  # what follows the "(" of an action pair


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


def _formula(tokens: list[str], pos: int) -> tuple[Formula, int]:
    values: list[Formula] = []
    ops: list = []  # _GROUP or (precedence, constructor, arity)
    while True:
        # An operand: prefix operators and open parentheses, then an atom.
        while True:
            token = tokens[pos]
            if token in _PREFIX:
                ops.append((_PREFIX_PRECEDENCE, _PREFIX[token], 1))
            elif token == "(" and tokens[pos + 1] not in _PAIR_STARTS:
                ops.append(_GROUP)
            else:
                break
            pos += 1
        atom, pos = _formula_atom(tokens, pos)
        values.append(atom)
        # Close parentheses until an infix operator or the end of the formula.
        infix = _INFIX.get(tokens[pos])
        while infix is None:
            _reduce(values, ops)
            if not ops:
                return values[0], pos
            pos = _expect(tokens, pos, ")")
            ops.pop()
            infix = _INFIX.get(tokens[pos])
        pos += 1
        precedence, right, build = infix
        _reduce(values, ops, precedence, right)
        ops.append((precedence, build, 2))


def _action_pair(tokens: list[str], pos: int) -> tuple[ActionExpr, int]:
    pos = _expect(tokens, pos, "(")
    positive = tokens[pos] != "~"
    if not positive:
        pos += 1
    action, pos = _action(tokens, pos)
    _expect(tokens, pos, ",")
    name = _name(tokens, pos + 1)
    _expect(tokens, pos + 2, ")")
    return ActionExpr(positive, action, name), pos + 3


def _formula_atom(tokens: list[str], pos: int) -> tuple[Formula, int]:
    token = tokens[pos]
    if token == "true":
        return Truth(), pos + 1
    if token == "issue":
        _expect(tokens, pos + 1, "(")
        name = _name(tokens, pos + 2)
        _expect(tokens, pos + 3, ",")
        lic, pos = _shared_license(tokens, pos + 4, _closing(tokens, pos + 4))
        return Issue(name, lic), _expect(tokens, pos, ")")
    if token == "P":
        expr, pos = _action_pair(tokens, pos + 1)
        return Perm(expr), pos
    if token == "O":
        expr, after = _action_pair(tokens, pos + 1)
        if not expr.positive:
            raise _Syntax(after, "obligations take a plain action, not a complement")
        return f_oblig(expr.action, expr.name), after
    if token == "(":
        expr, pos = _action_pair(tokens, pos)
        return Act(expr), pos
    raise _Syntax(pos, "expected a formula")


def parse_formula(text: str) -> Formula:
    return _read(text, _formula)


# Run files are line oriented (lines end at "\n" alone):
#   @<t> issue <name> = <license>
#   @<t> do <name> <action>
# One findall of _RUN_LINE splits the file into lines, each as (time, tail,
# other): a line whose frame is "@" and a natural gives its digits and the
# text after them, any other line that is not blank its text.  A file
# repeats a few tails many times over, so each distinct tail is parsed once,
# and only tails that parsed are remembered, so errors are unchanged.
_RUN_LINE = re.compile(
    r"^[ \t\r]*(?:@[ \t\r]*([0-9]+)(?![.0-9])([^\n]*)|(?:#[^\n]*)?$|([^\n]+))",
    re.MULTILINE,
)


def _run_entry(tokens: list[str], pos: int) -> tuple[bool, str, License | Action]:
    """``(is_issue, name, license or action)`` of the line text after the time."""
    keyword = tokens[pos]
    if keyword == "issue":
        name = _name(tokens, pos + 1)
        _expect(tokens, pos + 2, "=")
        payload, pos = _shared_license(tokens, pos + 3, len(tokens) - 1)  # to the end of the line
    elif keyword == "do":
        name = _name(tokens, pos + 1)
        payload, pos = _action(tokens, pos + 2)
    else:
        raise _Syntax(pos, "expected 'issue' or 'do'")
    _expect_end(tokens, pos)
    return keyword == "issue", name, payload


def _run_line(tokens: list[str]) -> tuple[int, tuple]:
    """The time and entry of a whole line whose frame is not ``@`` and a natural."""
    return _natural(tokens, _expect(tokens, 0, "@"), "time"), _run_entry(tokens, 2)


def parse_run(text: str) -> Run:
    issuances: list[tuple[int, str, License]] = []
    actions: list[tuple[int, str, Action]] = []
    tails: dict[str, tuple[bool, str, License | Action]] = {}
    horizon = 0  # the last event time
    lines = _RUN_LINE.findall(text)
    try:
        for digits, tail, other in lines:
            if digits:
                time = int(digits)
                entry = tails.get(tail)
                if entry is None:
                    entry = tails[tail] = _run_entry(_token_texts(tail), 0)
            elif other:
                time, entry = _run_line(_token_texts(other))
            else:  # blanks and a comment at most
                continue
            is_issue, name, payload = entry
            (issuances if is_issue else actions).append((time, name, payload))
            if time > horizon:
                horizon = time
    except (_Syntax, ValueError) as err:
        # The first line with this text fails: a line repeating an earlier
        # one's text would have failed there.
        index = lines.index((digits, tail, other))
        raw = text.split("\n")[index]
        if isinstance(err, ValueError):  # an over-long time
            tokenize(raw, index + 1)
            raise
        at, message = err.args
        # "@" and the time come before a tail's tokens
        raise _located(raw, index + 1, at + 2 if digits else at, message) from None
    return Run(horizon, tuple(issuances), tuple(actions))


# DR licenses:  for [upto] [m] p pay x (upfront|flatrate|peruse) for {..} on {..}

def _ident_set(tokens: list[str], pos: int) -> tuple[frozenset[str], int]:
    _expect(tokens, pos, "{")
    names = [_name(tokens, pos + 1, "identifier")]
    pos += 2
    while tokens[pos] == ",":
        names.append(_name(tokens, pos + 1, "identifier"))
        pos += 2
    return frozenset(names), _expect(tokens, pos, "}")


def _dr(tokens: list[str], pos: int) -> tuple[tuple, int]:
    """The fields of a ``DrLicense``, built once the whole text has parsed."""
    pos = _expect(tokens, pos, "for")
    if tokens[pos] == "upto":
        count = _natural(tokens, pos + 1, "period count")
        repetition = Upto(count, _natural(tokens, pos + 2, "period length"))
        pos += 3
    else:
        first = _natural(tokens, pos, "period length")
        if tokens[pos + 1][:1] in _DIGITS:
            repetition = Exactly(first, _natural(tokens, pos + 1, "period length"))
            pos += 2
        else:
            repetition = Single(first)
            pos += 1
    amount = _amount(tokens, _expect(tokens, pos, "pay"))
    schedule = tokens[pos + 2]
    if schedule not in ("upfront", "flatrate", "peruse"):
        raise _Syntax(pos + 2, "expected a payment schedule (upfront, flatrate, or peruse)")
    works, pos = _ident_set(tokens, _expect(tokens, pos + 3, "for"))
    devices, pos = _ident_set(tokens, _expect(tokens, pos, "on"))
    return (repetition, amount, schedule, works, devices), pos


def parse_dr(text: str) -> DrLicense:
    return DrLicense(*_read(text, _dr))
