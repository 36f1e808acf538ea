"""Boolean formula AST, text parser, and the one evaluator.

A formula is a tree of variables ``x1 .. xm``, the constants ``0``/``1``,
and the connectives NOT, AND, OR, IMPLIES, IFF.  Concrete syntax::

    formula := iff
    iff     := impl ("<->" impl)?          # non-associative, chains rejected
    impl    := or ("->" impl)?             # right-associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := ("!" | "~") unary | atom
    atom    := "x" digits | "0" | "1" | "(" formula ")"

Whitespace is insignificant.  Precedence, tightest first: NOT, AND, OR,
IMPLIES, IFF.  ``x -> y`` has the truth table of ``!x | y`` and
``x <-> y`` that of ``(!x | y) & (!y | x)``.

``evaluate`` is the only evaluator; ``truth_table`` runs it once on the
bit columns of all 2^m assignments, and the lift and the oracle read that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "Var",
    "Const",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "BooleanFormula",
    "BooleanSystem",
    "FormulaSyntaxError",
    "parse_formula",
    "evaluate",
    "truth_table",
    "format_formula",
    "max_var_index",
]


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1


@dataclass(frozen=True)
class Not:
    child: "BooleanFormula"


@dataclass(frozen=True)
class And:
    left: "BooleanFormula"
    right: "BooleanFormula"


@dataclass(frozen=True)
class Or:
    left: "BooleanFormula"
    right: "BooleanFormula"


@dataclass(frozen=True)
class Implies:
    left: "BooleanFormula"
    right: "BooleanFormula"


@dataclass(frozen=True)
class Iff:
    left: "BooleanFormula"
    right: "BooleanFormula"


BooleanFormula = Union[Var, Const, Not, And, Or, Implies, Iff]


class FormulaSyntaxError(ValueError):
    """Parse failure, carrying the 0-based offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"x(\d+)|[01]|<->|->|[|&!~()]")


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        yield match.group(0), pos
        pos = match.end()
    yield "", n  # end marker


# The binary connectives, loosest first: (token, node class, associativity),
# read by both the parser and the printer; None (non-associative) refuses chains.
_BINARY = (
    ("<->", Iff, None),
    ("->", Implies, "right"),
    ("|", Or, "left"),
    ("&", And, "left"),
)


def _expected(what: str, found: str, pos: int) -> FormulaSyntaxError:
    shown = repr(found) if found else "end of input"
    return FormulaSyntaxError(f"expected {what}, found {shown}", pos)


class _Parser:
    def __init__(self, text: str, m: int):
        self.m = m
        self.tokens = list(_tokenize(text))
        self.i = 0

    def accept(self, token: str) -> bool:
        if self.tokens[self.i][0] == token:
            self.i += 1
            return True
        return False

    def parse(self) -> BooleanFormula:
        node = self.binary(0)
        found, pos = self.tokens[self.i]
        if found:
            raise FormulaSyntaxError(f"unexpected trailing token {found!r}", pos)
        return node

    def binary(self, level: int) -> BooleanFormula:
        """The connectives of ``_BINARY[level:]`` and everything tighter."""
        if level == len(_BINARY):
            return self.unary()
        token, node_class, assoc = _BINARY[level]
        node = self.binary(level + 1)
        while self.accept(token):
            if assoc == "right":
                return node_class(node, self.binary(level))
            node = node_class(node, self.binary(level + 1))
            found, pos = self.tokens[self.i]
            if assoc is None and found == token:
                raise FormulaSyntaxError(f"chained {token!r} is ambiguous, parenthesize", pos)
        return node

    def unary(self) -> BooleanFormula:
        token, pos = self.tokens[self.i]
        self.i += 1
        if token in ("!", "~"):
            return Not(self.unary())
        if token == "(":
            node = self.binary(0)
            if not self.accept(")"):
                raise _expected("')'", *self.tokens[self.i])
            return node
        if token in ("0", "1"):
            return Const(int(token))
        if token.startswith("x"):
            index = int(token[1:])
            if not 1 <= index <= self.m:
                raise FormulaSyntaxError(f"variable x{index} out of range 1..{self.m}", pos)
            return Var(index)
        raise _expected("a variable, constant or '('", token, pos)


def parse_formula(text: str, m: int) -> BooleanFormula:
    """Parse ``text`` into a formula over the variables x1..xm."""
    if m < 1:
        raise ValueError(f"variable count must be >= 1, got {m}")
    return _Parser(text, m).parse()


def evaluate(f: BooleanFormula, x: Sequence[int] | np.ndarray) -> int | np.ndarray:
    """Truth value of ``f`` at one assignment ``x = [x1, ..., xm]`` (0 or 1),
    or at each column of the (m, N) 0/1 array ``x`` in one pass over the
    tree (N values; a constant formula gives a scalar, which broadcasts)."""
    match f:
        case Var(index):
            if index > len(x):
                raise ValueError(
                    f"assignment of length {len(x)} has no variable x{index}"
                )
            return x[index - 1]
        case Const(value):
            return value
        case Not(child):
            return 1 - evaluate(child, x)
        case And(left, right):
            return evaluate(left, x) & evaluate(right, x)
        case Or(left, right):
            return evaluate(left, x) | evaluate(right, x)
        case Implies(left, right):
            return (1 - evaluate(left, x)) | evaluate(right, x)
        case Iff(left, right):
            return 1 - (evaluate(left, x) ^ evaluate(right, x))
    raise TypeError(f"not a formula node: {f!r}")


def truth_table(f: BooleanFormula, m: int) -> np.ndarray:
    """All 2^m truth values of ``f`` as an int array, entry i (0-based) at
    the assignment whose bits are the base-2 digits of i, x1 most
    significant: one ``evaluate`` on the uint8 (m, 2^m) bit columns."""
    bits = np.empty((m, 2**m), dtype=np.uint8)
    for k in range(m):  # row k: 2^k blocks of 2^(m-1-k) zeros, then as many ones
        bits[k].reshape(2**k, 2, -1)[:] = [[0], [1]]
    return np.broadcast_to(evaluate(f, bits), 2**m).astype(int)


def max_var_index(f: BooleanFormula) -> int:
    """Largest variable index referenced by ``f`` (0 for constant formulas)."""
    match f:
        case Var(index):
            return index
        case Const(_):
            return 0
        case Not(child):
            return max_var_index(child)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return max(max_var_index(l), max_var_index(r))
    raise TypeError(f"not a formula node: {f!r}")


def format_formula(f: BooleanFormula) -> str:
    """Render ``f`` in the concrete syntax with minimal parentheses;
    ``parse_formula(format_formula(f), m)`` reproduces ``f`` structurally."""
    return _format(f, 0)


def _format(f: BooleanFormula, level: int) -> str:
    """``f`` as an operand that binds at least as tightly as ``_BINARY[level]``
    (``level == len(_BINARY)``: the operand of a negation)."""
    match f:
        case Var(index):
            return f"x{index}"
        case Const(value):
            return str(value)
        case Not(child):
            return "!" + _format(child, len(_BINARY))
    for own, (token, node_class, assoc) in enumerate(_BINARY):
        if type(f) is node_class:
            # only the side that the connective groups on may repeat it bare
            left = _format(f.left, own if assoc == "left" else own + 1)
            right = _format(f.right, own if assoc == "right" else own + 1)
            text = f"{left} {token} {right}"
            return f"({text})" if own < level else text
    raise TypeError(f"not a formula node: {f!r}")


@dataclass(frozen=True)
class BooleanSystem:
    """A system of Boolean equations f_i(x) = rhs_i over m shared variables."""

    m: int
    equations: tuple[tuple[BooleanFormula, int], ...]

    def __post_init__(self):
        # a problem file's type rules: ``bool`` subclasses ``int`` and
        # 1.0 == 1, but neither is an integer count or right-hand side
        if type(self.m) is not int:
            raise ValueError(f"variable count must be an integer, got {self.m!r}")
        if self.m < 1:
            raise ValueError(f"variable count must be >= 1, got {self.m}")
        if len(self.equations) < 1:
            raise ValueError("a system needs at least one equation")
        for k, (f, rhs) in enumerate(self.equations):
            if type(rhs) is not int or rhs not in (0, 1):
                raise ValueError(
                    f"right-hand side of equation {k + 1} must be 0 or 1, got {rhs!r}"
                )
            top = max_var_index(f)
            if top > self.m:
                raise ValueError(
                    f"equation {k + 1} references x{top}, but m = {self.m}"
                )

    @property
    def n(self) -> int:
        return len(self.equations)

    @classmethod
    def from_texts(cls, m: int, equations: Sequence[tuple[str, int]]) -> "BooleanSystem":
        """Build a system from (formula text, right-hand side) pairs."""
        return cls(m, tuple((parse_formula(text, m), rhs) for text, rhs in equations))

    def satisfies(self, x: Sequence[int]) -> bool:
        """True when the assignment ``x`` solves every equation."""
        return all(evaluate(f, x) == rhs for f, rhs in self.equations)
