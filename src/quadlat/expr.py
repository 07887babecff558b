"""Lattice-expression grammar: parser, AST, printer, evaluator.

    expr := term (('+' | '⊕') term)*
    term := atom ('^' UINT)?
    atom := IDENT ('(' INT (',' INT)* ')')?  |  '(' expr ')'

Whitespace is insignificant.  Atoms are U, E8, An, gen, Lambda2d,
LambdaSharp, LambdaK3; U, E8 and An take an optional trailing integer
twist, e.g. "E8(-1)^2 + U^2 + gen(-4)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import BadParameter, ParseError, UnknownAtom
from .lattice import Lattice, _check_rank, _relabelled, direct_sum, standard

_ATOMS = ("U", "E8", "An", "gen", "Lambda2d", "LambdaSharp", "LambdaK3")

LatticeExpr = Union["Atom", "Power", "Sum"]


@dataclass(frozen=True)
class Atom:
    name: str
    params: tuple[int, ...] = ()

    def to_text(self) -> str:
        if self.params:
            return f"{self.name}({','.join(str(p) for p in self.params)})"
        return self.name

    def evaluate(self) -> Lattice:
        return standard(self.name, *self.params)


@dataclass(frozen=True)
class Power:
    base: LatticeExpr
    count: int

    def to_text(self) -> str:
        inner = self.base.to_text()
        if not isinstance(self.base, Atom):
            inner = f"({inner})"
        return f"{inner}^{self.count}"

    def evaluate(self) -> Lattice:
        if self.count < 1:
            raise BadParameter("direct-sum power must be >= 1")
        part = self.base.evaluate()
        _check_rank(part.rank * self.count)
        return direct_sum(*([part] * self.count))


@dataclass(frozen=True)
class Sum:
    terms: tuple[LatticeExpr, ...]

    def to_text(self) -> str:
        return " + ".join(t.to_text() for t in self.terms)

    def evaluate(self) -> Lattice:
        return direct_sum(*(t.evaluate() for t in self.terms))


_SYMBOLS = {"+", "⊕", "^", "(", ")", ","}


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            kind = "+" if ch == "⊕" else ch
            tokens.append((kind, ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            start = i
            i += 1
            while i < n and text[i].isdecimal():
                i += 1
            try:
                value = int(text[start:i])
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ParseError("integer literal is too long", start) from None
            tokens.append(("int", value, start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return self.advance()

    def parse(self) -> LatticeExpr:
        expr = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected trailing input", tok[2])
        return expr

    def expr(self) -> LatticeExpr:
        terms = [self.term()]
        while self.peek()[0] == "+":
            self.advance()
            terms.append(self.term())
        if len(terms) == 1:
            return terms[0]
        # flatten nested sums so printing and re-parsing agree
        flat: list[LatticeExpr] = []
        for t in terms:
            if isinstance(t, Sum):
                flat.extend(t.terms)
            else:
                flat.append(t)
        return Sum(tuple(flat))

    def term(self) -> LatticeExpr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "int" or tok[1] < 0:
                raise ParseError("expected exponent", tok[2])
            self.advance()
            return Power(base, tok[1])
        return base

    def atom(self) -> LatticeExpr:
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            inner = self.expr()
            self.expect(")", "')'")
            return inner
        if tok[0] != "ident":
            raise ParseError("expected a lattice atom", tok[2])
        if tok[1] not in _ATOMS:
            raise UnknownAtom(f"unknown lattice atom {tok[1]!r} at offset {tok[2]}")
        self.advance()
        params: list[int] = []
        if self.peek()[0] == "(":
            self.advance()
            params.append(self.expect("int", "an integer parameter")[1])
            while self.peek()[0] == ",":
                self.advance()
                params.append(self.expect("int", "an integer parameter")[1])
            self.expect(")", "')'")
        return Atom(tok[1], tuple(params))


def parse_lattice_expr(text: str) -> LatticeExpr:
    """Parse the lattice-expression grammar; errors carry the offset."""
    return _Parser(text).parse()


def evaluate_expr(text: str) -> Lattice:
    """Parse and evaluate, labelling the result with its canonical text."""
    ast = parse_lattice_expr(text)
    lat = ast.evaluate()
    return _relabelled(lat, ast.to_text())
