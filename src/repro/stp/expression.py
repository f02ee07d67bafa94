"""Boolean expression trees and their conversion into STP canonical forms.

This module provides a small, explicit expression AST (variables,
constants, NOT and the usual binary connectives), a recursive-descent
parser for a conventional infix syntax, conventional evaluation, and the
conversion into the semi-tensor-product canonical form of
:mod:`repro.stp.canonical`.

The expression syntax accepted by :func:`parse_expression`::

    expr    := equiv
    equiv   := implies ( ("<->" | "==") implies )*
    implies := or ( "->" or )*          (right associative)
    or      := xor ( ("|" | "+") xor )*
    xor     := and ( "^" and )*
    and     := unary ( ("&" | "*") unary )*
    unary   := ("!" | "~") unary | atom
    atom    := "(" expr ")" | "0" | "1" | "true" | "false" | identifier

Example 2 from the paper (the three-liars puzzle) is expressible as
``"(a <-> !b) & (b <-> !c) & (c <-> (!a & !b))"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .canonical import (
    STPForm,
    apply_binary,
    apply_unary,
    constant_form,
    normalize,
    variable_form,
)
from .matrices import OPERATOR_MATRICES, M_NOT

__all__ = [
    "Expression",
    "Variable",
    "Constant",
    "NotOp",
    "BinaryOp",
    "parse_expression",
    "expression_to_stp",
    "truth_table_of_expression",
    "satisfying_assignments",
]

_BINARY_OPERATORS = ("and", "or", "xor", "xnor", "nand", "nor", "implies", "equiv")


class Expression:
    """Base class of Boolean expression nodes."""

    def variables(self) -> list[str]:
        """Distinct variables of the expression, in sorted order."""
        names: set[str] = set()
        self._collect_variables(names)
        return sorted(names)

    def _collect_variables(self, into: set[str]) -> None:
        raise NotImplementedError

    def evaluate(self, assignment: Mapping[str, bool | int]) -> bool:
        """Evaluate the expression under a variable assignment."""
        raise NotImplementedError

    def _to_canonical_stp(self) -> STPForm:
        """Bottom-up canonical construction (normalised at every node).

        Keeping every intermediate form canonical bounds the matrix width by
        ``2**distinct_variables`` instead of ``2**occurrences``.
        """
        raise NotImplementedError

    def to_stp(self, variable_order: Sequence[str] | None = None) -> STPForm:
        """Convert into the STP *canonical* form over ``variable_order``."""
        return normalize(self._to_canonical_stp(), variable_order or self.variables())

    # -- operator overloads for ergonomic construction ---------------------
    def __and__(self, other: "Expression") -> "Expression":
        return BinaryOp("and", self, other)

    def __or__(self, other: "Expression") -> "Expression":
        return BinaryOp("or", self, other)

    def __xor__(self, other: "Expression") -> "Expression":
        return BinaryOp("xor", self, other)

    def __invert__(self) -> "Expression":
        return NotOp(self)

    def implies(self, other: "Expression") -> "Expression":
        """Logical implication ``self -> other``."""
        return BinaryOp("implies", self, other)

    def iff(self, other: "Expression") -> "Expression":
        """Logical equivalence ``self <-> other``."""
        return BinaryOp("equiv", self, other)


@dataclass(frozen=True)
class Variable(Expression):
    """A named Boolean variable."""

    name: str

    def _collect_variables(self, into: set[str]) -> None:
        into.add(self.name)

    def evaluate(self, assignment: Mapping[str, bool | int]) -> bool:
        if self.name not in assignment:
            raise KeyError(f"assignment missing variable {self.name!r}")
        return bool(assignment[self.name])

    def _to_canonical_stp(self) -> STPForm:
        return variable_form(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant(Expression):
    """The Boolean constants ``True`` / ``False``."""

    value: bool

    def _collect_variables(self, into: set[str]) -> None:
        return None

    def evaluate(self, assignment: Mapping[str, bool | int]) -> bool:
        return self.value

    def _to_canonical_stp(self) -> STPForm:
        return constant_form(self.value)

    def __str__(self) -> str:
        return "1" if self.value else "0"


@dataclass(frozen=True)
class NotOp(Expression):
    """Logical negation."""

    operand: Expression

    def _collect_variables(self, into: set[str]) -> None:
        self.operand._collect_variables(into)

    def evaluate(self, assignment: Mapping[str, bool | int]) -> bool:
        return not self.operand.evaluate(assignment)

    def _to_canonical_stp(self) -> STPForm:
        return apply_unary(M_NOT, self.operand._to_canonical_stp())

    def __str__(self) -> str:
        return f"!{self.operand}" if isinstance(self.operand, (Variable, Constant)) else f"!({self.operand})"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary connective; ``operator`` is a key of ``OPERATOR_MATRICES``."""

    operator: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.operator not in _BINARY_OPERATORS:
            raise ValueError(f"unknown binary operator {self.operator!r}; known: {_BINARY_OPERATORS}")

    def _collect_variables(self, into: set[str]) -> None:
        self.left._collect_variables(into)
        self.right._collect_variables(into)

    def evaluate(self, assignment: Mapping[str, bool | int]) -> bool:
        a = self.left.evaluate(assignment)
        b = self.right.evaluate(assignment)
        if self.operator == "and":
            return a and b
        if self.operator == "or":
            return a or b
        if self.operator == "xor":
            return a != b
        if self.operator in ("xnor", "equiv"):
            return a == b
        if self.operator == "nand":
            return not (a and b)
        if self.operator == "nor":
            return not (a or b)
        if self.operator == "implies":
            return (not a) or b
        raise AssertionError(f"unhandled operator {self.operator}")

    def _to_canonical_stp(self) -> STPForm:
        combined = apply_binary(
            OPERATOR_MATRICES[self.operator],
            self.left._to_canonical_stp(),
            self.right._to_canonical_stp(),
        )
        return normalize(combined)

    def __str__(self) -> str:
        symbol = {
            "and": "&",
            "or": "|",
            "xor": "^",
            "xnor": "<->",
            "equiv": "<->",
            "nand": "!&",
            "nor": "!|",
            "implies": "->",
        }[self.operator]
        return f"({self.left} {symbol} {self.right})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SYMBOL_TOKENS = ("<->", "->", "==", "(", ")", "!", "~", "&", "*", "|", "+", "^")


def _tokenize(text: str) -> Iterator[str]:
    i = 0
    length = len(text)
    while i < length:
        char = text[i]
        if char.isspace():
            i += 1
            continue
        matched = False
        for symbol in _SYMBOL_TOKENS:
            if text.startswith(symbol, i):
                yield symbol
                i += len(symbol)
                matched = True
                break
        if matched:
            continue
        if char.isalnum() or char == "_":
            start = i
            while i < length and (text[i].isalnum() or text[i] == "_"):
                i += 1
            yield text[start:i]
            continue
        raise ValueError(f"unexpected character {char!r} at position {i} in {text!r}")


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._position = 0
        self._text = text

    def parse(self) -> Expression:
        expression = self._equiv()
        if self._position != len(self._tokens):
            raise ValueError(f"trailing tokens {self._tokens[self._position:]} in {self._text!r}")
        return expression

    def _peek(self) -> str | None:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _advance(self) -> str:
        token = self._tokens[self._position]
        self._position += 1
        return token

    def _expect(self, token: str) -> None:
        if self._peek() != token:
            raise ValueError(f"expected {token!r} at token {self._position} in {self._text!r}, got {self._peek()!r}")
        self._advance()

    def _equiv(self) -> Expression:
        node = self._implies()
        while self._peek() in ("<->", "=="):
            self._advance()
            node = BinaryOp("equiv", node, self._implies())
        return node

    def _implies(self) -> Expression:
        node = self._or()
        if self._peek() == "->":
            self._advance()
            return BinaryOp("implies", node, self._implies())
        return node

    def _or(self) -> Expression:
        node = self._xor()
        while self._peek() in ("|", "+"):
            self._advance()
            node = BinaryOp("or", node, self._xor())
        return node

    def _xor(self) -> Expression:
        node = self._and()
        while self._peek() == "^":
            self._advance()
            node = BinaryOp("xor", node, self._and())
        return node

    def _and(self) -> Expression:
        node = self._unary()
        while self._peek() in ("&", "*"):
            self._advance()
            node = BinaryOp("and", node, self._unary())
        return node

    def _unary(self) -> Expression:
        if self._peek() in ("!", "~"):
            self._advance()
            return NotOp(self._unary())
        return self._atom()

    def _atom(self) -> Expression:
        token = self._peek()
        if token is None:
            raise ValueError(f"unexpected end of expression in {self._text!r}")
        if token == "(":
            self._advance()
            node = self._equiv()
            self._expect(")")
            return node
        self._advance()
        lowered = token.lower()
        if lowered in ("0", "false"):
            return Constant(False)
        if lowered in ("1", "true"):
            return Constant(True)
        if token[0].isdigit():
            raise ValueError(f"invalid identifier {token!r} in {self._text!r}")
        return Variable(token)


def parse_expression(text: str) -> Expression:
    """Parse an infix Boolean expression into an :class:`Expression` tree."""
    return _Parser(text).parse()


def expression_to_stp(expression: Expression | str, variable_order: Sequence[str] | None = None) -> STPForm:
    """Convenience wrapper: parse if needed, then return the canonical STP form."""
    if isinstance(expression, str):
        expression = parse_expression(expression)
    return expression.to_stp(variable_order)


def truth_table_of_expression(expression: Expression | str, variable_order: Sequence[str] | None = None) -> list[int]:
    """Truth table of an expression by direct evaluation (no STP involved).

    Used as an oracle when testing the algebraic canonical-form construction.
    Index ``i`` corresponds to the assignment where ``variable_order[0]`` is
    the most significant bit of ``i``.
    """
    if isinstance(expression, str):
        expression = parse_expression(expression)
    order = list(variable_order) if variable_order is not None else expression.variables()
    table: list[int] = []
    for index in range(1 << len(order)):
        assignment = {
            name: bool((index >> (len(order) - 1 - position)) & 1)
            for position, name in enumerate(order)
        }
        table.append(int(expression.evaluate(assignment)))
    return table


def satisfying_assignments(expression: Expression | str) -> list[dict[str, bool]]:
    """Enumerate all satisfying assignments of a (small) expression."""
    if isinstance(expression, str):
        expression = parse_expression(expression)
    order = expression.variables()
    results: list[dict[str, bool]] = []
    for index in range(1 << len(order)):
        assignment = {
            name: bool((index >> (len(order) - 1 - position)) & 1)
            for position, name in enumerate(order)
        }
        if expression.evaluate(assignment):
            results.append(assignment)
    return results
