import random

import pytest

from quadlat.errors import BadParameter, ParseError, UnknownAtom
from quadlat.expr import Atom, Power, Sum, evaluate_expr, parse_lattice_expr
from quadlat.lattice import Signature, discriminant_group, is_even, signature


class TestParsing:
    def test_polarized_k3_expression(self):
        L = evaluate_expr("E8(-1)^2 + U^2 + gen(-4)")
        assert L.rank == 21 and abs(L.det) == 4
        assert signature(L) == Signature(2, 19)

    def test_bare_atom(self):
        assert evaluate_expr("U").gram.tolist() == [[0, 1], [1, 0]]

    def test_truncated_exponent_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_lattice_expr("E8(-1)^")
        assert exc.value.position == 7

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtom):
            parse_lattice_expr("E9")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse_lattice_expr("U + %")
        assert exc.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_lattice_expr("U U")

    def test_oplus_alias(self):
        assert parse_lattice_expr("U ⊕ U") == parse_lattice_expr("U + U")

    def test_whitespace_insensitive(self):
        assert parse_lattice_expr(" E8( -1 ) ^ 2 ") == parse_lattice_expr("E8(-1)^2")

    def test_parenthesized_sum_power(self):
        ast = parse_lattice_expr("(U + gen(2))^3")
        assert isinstance(ast, Power) and ast.count == 3
        assert evaluate_expr("(U + gen(2))^3").rank == 9

    def test_double_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_lattice_expr("U^2^3")

    def test_superscript_digits_are_not_integers(self):
        # str.isdigit accepts '²', which int() cannot read; decimal digits
        # of any script are read
        with pytest.raises(ParseError, match="unexpected character '²'") as exc:
            parse_lattice_expr("U^²")
        assert exc.value.position == 2
        assert parse_lattice_expr("U(٣)") == parse_lattice_expr("U(3)")

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse_lattice_expr("gen(3")


class TestEvaluation:
    def test_zero_power_rejected(self):
        with pytest.raises(BadParameter):
            evaluate_expr("U^0")

    def test_atom_parameter_validation(self):
        with pytest.raises(BadParameter):
            evaluate_expr("Lambda2d(0)")
        with pytest.raises(BadParameter):
            evaluate_expr("gen(0)")
        with pytest.raises(BadParameter):
            evaluate_expr("LambdaSharp(2)")

    def test_named_lattices(self):
        assert evaluate_expr("LambdaSharp").rank == 28
        assert evaluate_expr("LambdaK3").rank == 22
        assert evaluate_expr("Lambda2d(6)").rank == 21
        assert discriminant_group(evaluate_expr("Lambda2d(6)")).invariant_factors == (12,)

    def test_an_twist(self):
        L = evaluate_expr("An(3,-1)")
        assert L.rank == 3 and is_even(L) and signature(L) == Signature(0, 3)

    def test_label_is_canonical_text(self):
        assert evaluate_expr("U ⊕ U").label == "U + U"


def random_ast(rng, depth=0):
    atoms = [
        Atom("U"),
        Atom("E8", (-1,)),
        Atom("gen", (rng.randint(1, 9),)),
        Atom("An", (rng.randint(1, 4),)),
        Atom("Lambda2d", (rng.randint(1, 9),)),
        Atom("LambdaSharp"),
    ]
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        return rng.choice(atoms)
    if roll < 0.75:
        return Power(random_ast(rng, depth + 1), rng.randint(1, 3))
    terms = []
    for t in (random_ast(rng, depth + 1) for _ in range(rng.randint(2, 3))):
        if isinstance(t, Sum):
            terms.extend(t.terms)
        else:
            terms.append(t)
    return Sum(tuple(terms))


def test_print_parse_round_trip():
    rng = random.Random(31337)
    for _ in range(200):
        ast = random_ast(rng)
        text = ast.to_text()
        assert parse_lattice_expr(text) == ast, text
