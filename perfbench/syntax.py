"""The benchmark's own reader for lict's text formats.

Everything here is iterative (explicit stacks, no recursion), so it reads
formulas of any depth: the ``X^t`` stacks that ``encode-run`` prints today
and the nested ``p0 & X(p1 & X(...))`` form alike.  It shares no code with
lict, so the checks built on it are independent of the program under test.

- ``license_rpn`` / ``formula_tree`` parse by shunting-yard.
- ``canonical_license`` gives a license a form that is equal for equal
  expressions up to the associativity of concatenation and union and the
  order of union alternatives.
- ``Glushkov`` is a position automaton for complete-trace membership.
- ``encoding_facts`` walks an encoding and lists what it pins down.
- ``evaluate`` labels a formula over an eventually constant run (used by the
  brute-force self-checks).
"""

from __future__ import annotations

import re
from decimal import Decimal

_CENT = Decimal("0.01")

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<pay>pay\s*\[\s*(?P<amount>\d+(?:\.\d*)?)\s*\])"
    r"|(?P<render>render\s*\[\s*(?P<work>\w+)\s*,\s*(?P<device>\w+)\s*\])"
    r"|(?P<xs>X(?!\w)(?:\s+X(?!\w))*)"
    r"|(?P<op>->|[()\[\]{},*|&!~@=])"
    r"|(?P<word>\w+)"
    r")"
)


class SyntaxMismatch(ValueError):
    """The text is not in the grammar this reader expects."""


def pay_text(amount) -> str:
    return f"pay[{Decimal(amount).quantize(_CENT)}]"


def tokenize(text: str) -> list[tuple[str, object]]:
    """Tokens as (kind, value); kinds: act, xs (count of X), op, word."""
    text = re.sub(r"#[^\n]*", "", text)
    tokens = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == pos:
            raise SyntaxMismatch(f"cannot read {text[pos:pos + 20]!r}")
        pos = match.end()
        if match.group("pay"):
            tokens.append(("act", pay_text(match.group("amount"))))
        elif match.group("render"):
            tokens.append(("act", f"render[{match.group('work')},{match.group('device')}]"))
        elif match.group("xs"):
            tokens.append(("xs", match.group("xs").count("X")))
        elif match.group("op"):
            tokens.append(("op", match.group("op")))
        elif match.group("word") == "bot":
            tokens.append(("act", "bot"))
        else:
            tokens.append(("word", match.group("word")))
    return tokens


# ---------------------------------------------------------------------------
# Licenses

_LIC_PREC = {"|": 1, ".": 2}


def license_rpn(tokens, start: int = 0) -> tuple[list, int]:
    """Parse a license from ``tokens[start:]``; stops at an unmatched ``)``.

    Returns the postfix items (("a", action) | ("0",) | ("1",) | ("|",) |
    (".",) | ("*",)) and the index of the first token not consumed.
    """
    out: list = []
    ops: list[str] = []
    operand_before = False
    i = start
    while i < len(tokens):
        kind, value = tokens[i]
        starts_operand = kind == "act" or value == "(" or (kind == "word" and value in ("0", "1"))
        if starts_operand and operand_before:
            _push_lic_op(".", ops, out)
            operand_before = False
        if kind == "act":
            out.append(("a", value))
            operand_before = True
        elif kind == "word" and value in ("0", "1"):
            out.append((value,))
            operand_before = True
        elif value == "(":
            ops.append("(")
        elif value == ")":
            if "(" not in ops:
                break
            while ops[-1] != "(":
                out.append((ops.pop(),))
            ops.pop()
            operand_before = True
        elif value == "*" and operand_before:
            out.append(("*",))
        elif value == "|" and operand_before:
            _push_lic_op("|", ops, out)
            operand_before = False
        else:
            break
        i += 1
    if "(" in ops or not operand_before:
        raise SyntaxMismatch("unbalanced or incomplete license")
    while ops:
        out.append((ops.pop(),))
    return out, i


def _push_lic_op(op: str, ops: list, out: list) -> None:
    while ops and ops[-1] != "(" and _LIC_PREC[ops[-1]] >= _LIC_PREC[op]:
        out.append((ops.pop(),))
    ops.append(op)


def canonical_license(rpn) -> tuple:
    """A hashable form, flattened through associative concat and union."""
    stack: list[tuple] = []
    for item in rpn:
        tag = item[0]
        if tag in ("a", "0", "1"):
            stack.append(item)
        elif tag == "*":
            stack.append(("*", stack.pop()))
        else:
            right = stack.pop()
            left = stack.pop()
            parts = []
            for side in (left, right):
                parts.extend(side[1] if side[0] == tag else (side,))
            stack.append((".", tuple(parts)) if tag == "." else ("|", frozenset(parts)))
    if len(stack) != 1:
        raise SyntaxMismatch("malformed license")
    return stack[0]


def parse_license_text(text: str) -> tuple:
    tokens = tokenize(text)
    rpn, end = license_rpn(tokens)
    if end != len(tokens):
        raise SyntaxMismatch(f"trailing text after license: {tokens[end]}")
    return canonical_license(rpn)


class Glushkov:
    """Position automaton of a license, for complete-trace membership."""

    def __init__(self, rpn):
        symbol: list[str] = [""]
        follow: list[set[int]] = [set()]
        stack: list[tuple[bool, frozenset, frozenset]] = []
        for item in rpn:
            tag = item[0]
            if tag == "a":
                symbol.append(item[1])
                follow.append(set())
                single = frozenset({len(symbol) - 1})
                stack.append((False, single, single))
            elif tag == "0":
                stack.append((False, frozenset(), frozenset()))
            elif tag == "1":
                stack.append((True, frozenset(), frozenset()))
            elif tag == "*":
                null, first, last = stack.pop()
                for q in last:
                    follow[q] |= first
                stack.append((True, first, last))
            else:
                null_r, first_r, last_r = stack.pop()
                null_l, first_l, last_l = stack.pop()
                if tag == "|":
                    stack.append((null_l or null_r, first_l | first_r, last_l | last_r))
                else:
                    for q in last_l:
                        follow[q] |= first_r
                    first = first_l | first_r if null_l else first_l
                    last = last_l | last_r if null_r else last_r
                    stack.append((null_l and null_r, first, last))
        (self.nullable, first, self.last), = stack
        follow[0] = set(first)
        self.moves: list[dict[str, frozenset]] = []
        for targets in follow:
            by_symbol: dict[str, set] = {}
            for p in targets:
                by_symbol.setdefault(symbol[p], set()).add(p)
            self.moves.append({a: frozenset(ps) for a, ps in by_symbol.items()})

    def accepts(self, trace) -> bool:
        current = {0}
        for action in trace:
            current = {p for q in current for p in self.moves[q].get(action, ())}
            if not current:
                return False
        return bool(current & self.last) or (0 in current and self.nullable)


# ---------------------------------------------------------------------------
# Formulas

_BINARY = {"->": (1, "right"), "|": (2, "left"), "&": (3, "left"), "U": (4, "right")}
_UNARY_PREC = 5
_BINARY_TAG = {"->": "imp", "|": "or", "&": "and", "U": "until"}


def formula_tree(text: str) -> tuple:
    """Parse a formula into nested tuples; ``X`` runs become ("X", count, f)."""
    tokens = tokenize(text)
    out: list = []
    ops: list = []
    expect_operand = True
    i = 0
    while i < len(tokens):
        kind, value = tokens[i]
        if expect_operand:
            if kind == "xs":
                ops.append(("X", value))
            elif value in ("!", "G", "F"):
                ops.append((value, 0))
            elif value == "(" and not _starts_pair(tokens, i + 1):
                ops.append(("(", 0))
            else:
                atom, i = _formula_atom(tokens, i)
                out.append(atom)
                expect_operand = False
                continue
        elif value in _BINARY:
            prec, assoc = _BINARY[value]
            while ops and ops[-1][0] != "(":
                top = ops[-1][0]
                top_prec = _BINARY[top][0] if top in _BINARY else _UNARY_PREC
                if top_prec > prec or (top_prec == prec and assoc == "left"):
                    _reduce(ops.pop(), out)
                else:
                    break
            ops.append((value, 0))
            expect_operand = True
        elif value == ")":
            while ops and ops[-1][0] != "(":
                _reduce(ops.pop(), out)
            if not ops:
                raise SyntaxMismatch("unbalanced ')'")
            ops.pop()
        else:
            raise SyntaxMismatch(f"unexpected token {value!r}")
        i += 1
    if expect_operand:
        raise SyntaxMismatch("formula ends early")
    while ops:
        if ops[-1][0] == "(":
            raise SyntaxMismatch("unbalanced '('")
        _reduce(ops.pop(), out)
    if len(out) != 1:
        raise SyntaxMismatch("malformed formula")
    return out[0]


def _starts_pair(tokens, i: int) -> bool:
    return i < len(tokens) and (tokens[i][0] == "act" or tokens[i][1] == "~")


def _reduce(op, out: list) -> None:
    tag, count = op
    if tag in _BINARY:
        right = out.pop()
        left = out.pop()
        out.append((_BINARY_TAG[tag], left, right))
        return
    operand = out.pop()
    if tag == "X":
        if operand[0] == "X":
            count += operand[1]
            operand = operand[2]
        out.append(("X", count, operand))
    else:
        out.append(({"!": "not", "G": "G", "F": "F"}[tag], operand))


def _expect(tokens, i: int, value) -> int:
    if i >= len(tokens) or tokens[i][1] != value:
        raise SyntaxMismatch(f"expected {value!r}")
    return i + 1


def _pair(tokens, i: int) -> tuple[bool, str, str, int]:
    """Read ``(~?action, name)`` starting at the ``(``."""
    i = _expect(tokens, i, "(")
    positive = True
    if tokens[i][1] == "~":
        positive = False
        i += 1
    kind, action = tokens[i]
    if kind != "act":
        raise SyntaxMismatch("expected an action")
    i = _expect(tokens, i + 1, ",")
    kind, name = tokens[i]
    if kind != "word":
        raise SyntaxMismatch("expected a name")
    return positive, action, name, _expect(tokens, i + 1, ")")


def _formula_atom(tokens, i: int) -> tuple[tuple, int]:
    kind, value = tokens[i]
    if value == "true":
        return ("true",), i + 1
    if value == "(":
        positive, action, name, i = _pair(tokens, i)
        return ("act", positive, action, name), i
    if value in ("P", "O"):
        positive, action, name, i = _pair(tokens, i + 1)
        if value == "O":
            if not positive:
                raise SyntaxMismatch("O takes a plain action")
            return ("obl", action, name), i
        return ("perm", positive, action, name), i
    if value == "issue":
        i = _expect(tokens, i + 1, "(")
        kind, name = tokens[i]
        if kind != "word":
            raise SyntaxMismatch("expected a name")
        i = _expect(tokens, i + 1, ",")
        rpn, i = license_rpn(tokens, i)
        return ("issue", name, canonical_license(rpn)), _expect(tokens, i, ")")
    raise SyntaxMismatch(f"unexpected token {value!r}")


def encoding_facts(tree) -> tuple[dict, dict, list]:
    """What an encoding pins down, read by an explicit-stack walk.

    Returns ({(t, name): action}, {name: (t, canonical license)},
    [(t, names idling forever)]).  Anything but conjunctions, nexts, positive
    action atoms, issuance atoms and one closing ``G`` of bot atoms is
    rejected.
    """
    acts: dict = {}
    issues: dict = {}
    idles: list = []
    stack = [(tree, 0, False)]
    while stack:
        node, t, inside_g = stack.pop()
        tag = node[0]
        if tag == "and":
            stack.append((node[1], t, inside_g))
            stack.append((node[2], t, inside_g))
        elif tag == "X" and not inside_g:
            stack.append((node[2], t + node[1], False))
        elif tag == "G" and not inside_g:
            idles.append([t, set()])
            stack.append((node[1], t, True))
        elif tag == "act" and node[1] and inside_g:
            if node[2] != "bot":
                raise SyntaxMismatch("the closing G may only hold bot atoms")
            for entry in idles:
                if entry[0] == t:
                    entry[1].add(node[3])
        elif tag == "act" and node[1]:
            if (t, node[3]) in acts:
                raise SyntaxMismatch(f"two actions for {node[3]} at {t}")
            acts[(t, node[3])] = node[2]
        elif tag == "issue" and not inside_g:
            if node[1] in issues:
                raise SyntaxMismatch(f"{node[1]} issued twice")
            issues[node[1]] = (t, node[2])
        elif tag != "true":
            raise SyntaxMismatch(f"unexpected {tag} in an encoding")
    return acts, issues, [(t, frozenset(names)) for t, names in idles]


# ---------------------------------------------------------------------------
# Evaluation over an eventually constant run


def evaluate(tree, world, t: int = 0) -> bool:
    """Truth of a parsed formula at ``t``.

    ``world`` offers ``last`` (after which every label repeats),
    ``action(name, t)``, ``permitted(name, t)`` (a set of action texts) and
    ``issued(t)`` (a set of (name, canonical license)).  Subformulas are
    labelled bottom-up over times 0..last in one backward sweep each.
    """
    last = world.last
    times = range(last + 1)
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        tag = node[0]
        if tag in ("and", "or", "imp", "until"):
            stack.extend((node[1], node[2]))
        elif tag in ("not", "G", "F"):
            stack.append(node[1])
        elif tag == "X":
            stack.append(node[2])
    labels: dict[int, list[bool]] = {}
    for node in reversed(order):
        tag = node[0]
        if tag == "true":
            row = [True] * (last + 1)
        elif tag == "act":
            _, positive, action, name = node
            row = [(world.action(name, u) == action) == positive for u in times]
        elif tag == "perm":
            _, positive, action, name = node
            row = []
            for u in times:
                permitted = world.permitted(name, u)
                row.append(action in permitted if positive else bool(permitted - {action}))
        elif tag == "obl":
            row = [world.permitted(node[2], u) == {node[1]} for u in times]
        elif tag == "issue":
            row = [(node[1], node[2]) in world.issued(u) for u in times]
        elif tag == "not":
            row = [not v for v in labels[id(node[1])]]
        elif tag in ("and", "or", "imp"):
            a, b = labels[id(node[1])], labels[id(node[2])]
            if tag == "and":
                row = [x and y for x, y in zip(a, b)]
            elif tag == "or":
                row = [x or y for x, y in zip(a, b)]
            else:
                row = [(not x) or y for x, y in zip(a, b)]
        elif tag == "X":
            child = labels[id(node[2])]
            row = [child[min(u + node[1], last)] for u in times]
        else:
            row = [False] * (last + 1)
            if tag == "until":
                a, b = labels[id(node[1])], labels[id(node[2])]
                row[last] = b[last]
                for u in range(last - 1, -1, -1):
                    row[u] = b[u] or (a[u] and row[u + 1])
            else:
                child = labels[id(node[1])]
                row[last] = child[last]
                for u in range(last - 1, -1, -1):
                    row[u] = (child[u] and row[u + 1]) if tag == "G" else (child[u] or row[u + 1])
        labels[id(node)] = row
    return labels[id(tree)][min(t, last)]
