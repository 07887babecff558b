"""Lattices with exact Gram data: signatures, duals, discriminant forms.

A lattice here is a free ℤ-module of finite rank together with a
non-degenerate symmetric integer Gram matrix.  Vectors are row vectors
in the basis implicit in the Gram matrix, and the pairing of x with y is
x·G·yᵀ.  A Lattice carries its det and signature from the one elimination
that validates its Gram; direct sums and relabels compose them with none,
and ``standard("Lambda2d", d)`` and ``standard("gen", k)`` state them.
It keeps its discriminant group once that is computed.

A value the package builds from validated parts, with its facts known,
skips its class's checks: ``_trusted(cls, **fields)`` is the one unchecked
builder of every value type, ``Lattice``, ``DiscriminantForm``,
``embeddings.SublatticeEmbedding``, ``glue.GlueSubgroup`` and
``periods.QuadScalar``.  A fact computed once and then kept is declared
once, as a class attribute that defaults to None; its reader stores it in
the instance, and a builder that knows it passes it to ``_trusted``.

A discriminant form is its integer numerators over N, the exponent of
the group (its last invariant factor): q·N mod 2N and b·N mod N; its
rational values are built only when read.  Every q value lies in (1/N)ℤ
because N·x lies in the lattice for each dual vector x.  The searches
walk a form's ``_ElementTable``, which numbers the elements of ⊕ ℤ/dᵢ by
ints in lexicographic order and holds q on each of them.  Two forms are
compared one p-primary part at a time, and only a part that needs a
search gets tables, over its own exponent.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul
from typing import Iterator, Sequence

from .errors import (
    BadParameter,
    Degenerate,
    InvariantViolation,
    NotSymmetric,
    OddLattice,
    TooLarge,
    UnknownAtom,
)
from .linalg import (
    IntMatrix,
    RatMatrix,
    _congruence,
    _det_and_inertia,
    _echelon_mod,
    _smith,
    block_diag,
    invert_rational,
)

#: Default ceiling on |A| for the exhaustive finite-group searches
#: (discriminant-form isomorphism, glue enumeration).
BRUTE_FORCE_CAP = 10_000

#: Ceiling on the rank of a constructed lattice, checked before its Gram
#: matrix is allocated.
RANK_CAP = 1_000

# Gram matrix of the rank-8 even unimodular positive-definite lattice in
# its simple-root basis, Bourbaki numbering.  This basis choice is part
# of the package contract: vector coordinates, canonical embeddings and
# the expression atom "E8" all refer to it.  Diagram (node 2 hangs off
# node 4):
#
#   1 - 3 - 4 - 5 - 6 - 7 - 8
#           |
#           2
_E8_GRAM = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

_U_GRAM = ((0, 1), (1, 0))


@dataclass(frozen=True)
class Signature:
    """Inertia of a non-degenerate symmetric form: (positive, negative) counts."""

    plus: int
    minus: int

    @property
    def rank(self) -> int:
        return self.plus + self.minus

    def __iter__(self):
        yield self.plus
        yield self.minus


def _trusted(cls, **fields):
    """An instance of the value class cls holding ``fields`` as given, with
    no check: for values the package builds from validated parts."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class Lattice:
    """Validated lattice: symmetric non-degenerate integer Gram matrix."""

    gram: IntMatrix
    label: str | None = field(default=None, compare=False)
    _group = None  # the DiscriminantGroup, kept by discriminant_group or stated by standard

    def __post_init__(self):
        g = self.gram if isinstance(self.gram, IntMatrix) else IntMatrix(self.gram)
        if g.nrows != g.ncols or not g.is_symmetric():
            raise NotSymmetric("Gram matrix must be square and symmetric")
        d, sig = _det_and_signature(g)
        vars(self).update(gram=g, det=d, _signature=sig)

    @property
    def rank(self) -> int:
        return self.gram.nrows


def _det_and_signature(gram: IntMatrix) -> tuple[int, Signature]:
    # the one elimination that validates a symmetric Gram; a singular one is refused
    d, plus, minus = _det_and_inertia(gram)
    if d == 0:
        raise Degenerate("Gram matrix is singular")
    return d, Signature(plus, minus)


def _symmetric_lattice(gram: IntMatrix) -> Lattice:
    """An unlabelled lattice on a square Gram that is symmetric by
    construction, such as a congruence B·G·Bᵀ: the det/signature
    elimination and the ``Degenerate`` refusal run, the symmetry test does
    not.  ``make_lattice`` keeps every check."""
    det, sig = _det_and_signature(gram)
    return _trusted(Lattice, gram=gram, det=det, _signature=sig)


def _relabelled(L: Lattice, label: str | None) -> Lattice:
    # L under another label; the group L holds, a function of the Gram, goes with it
    return _trusted(Lattice, **{**vars(L), "label": label})


def _check_rank(rank: int) -> None:
    """Refuse a lattice of rank above RANK_CAP before anything is built."""
    if rank > RANK_CAP:
        raise TooLarge(f"rank {rank} exceeds the rank cap {RANK_CAP}")


def pair(gram: IntMatrix, x: Sequence, y: Sequence):
    """Evaluate the bilinear form x·gram·yᵀ on row vectors (int or Fraction)."""
    n = gram.nrows
    total = 0
    for i in range(n):
        xi = x[i]
        if xi:
            row = gram[i]
            total += xi * sum(row[j] * y[j] for j in range(n) if y[j])
    return total


def make_lattice(gram, label: str | None = None) -> Lattice:
    """Validate a Gram matrix and wrap it as a Lattice."""
    return Lattice(gram, label)


def rescale(L: Lattice, n: int) -> Lattice:
    """Multiply the form by a nonzero integer (the twist L(n))."""
    if n == 0:
        raise BadParameter("rescaling factor must be nonzero")
    return Lattice(L.gram.scale(n))


def direct_sum(*lattices: Lattice) -> Lattice:
    """Orthogonal direct sum (block-diagonal Gram).

    The determinant is the product of the block determinants, each
    nonzero, so the sum is non-degenerate without a new elimination; its
    signature is the sum of the blocks' signatures.
    """
    if not lattices:
        raise BadParameter("direct sum of nothing")
    _check_rank(sum(L.rank for L in lattices))
    gram = block_diag(*(L.gram for L in lattices))
    sig = Signature(sum(L._signature.plus for L in lattices), sum(L._signature.minus for L in lattices))
    return _trusted(Lattice, gram=gram, det=prod(L.det for L in lattices), _signature=sig)


# The fixed lattices, each built on first use and then shared, since a
# Lattice is frozen.  These five names are the memo's only keys.
_ATOM_GRAMS = {"E8": (_E8_GRAM, 1), "E8(-1)": (_E8_GRAM, -1), "U": (_U_GRAM, 1)}
_ATOM_SUMS = {"LambdaSharp": (3, 2), "LambdaK3": (2, 3)}  # copies of E8(-1) and of U
_ATOMS: dict[str, Lattice] = {}


def _atom(name: str) -> Lattice:
    L = _ATOMS.get(name)
    if L is None:
        if name in _ATOM_SUMS:
            e8_count, u_count = _ATOM_SUMS[name]
            S = direct_sum(*[_atom("E8(-1)")] * e8_count, *[_atom("U")] * u_count)
            L = _relabelled(S, name)
        else:
            gram, s = _ATOM_GRAMS[name]
            L = Lattice(IntMatrix(gram).scale(s), name)
        _ATOMS[name] = L
    return L


def standard(name: str, *params: int) -> Lattice:
    """Construct one of the named lattices.

    U, E8 and An accept an optional trailing scale factor; gen(k) is the
    rank-one lattice ⟨k⟩, which states det k and its signature and
    carries its group ℤ/|k| (trivial for k = ±1) with the lift
    sign(k)/|k|, the one the Smith transform of [k] gives;
    Lambda2d(d) = E8(-1)^2 + U^2 + gen(-2d);
    LambdaSharp = E8(-1)^3 + U^2; LambdaK3 = E8(-1)^2 + U^3.  E8, E8(-1),
    U, LambdaSharp and LambdaK3 are built once per process and shared.

    Lambda2d(d) is built from the LambdaK3 atom, E8(-1)^2 + U^3: its
    leading 20×20 block is E8(-1)^2 + U^2, whose rows, each with a 0
    appended, are followed by the row (0, ..., 0, -2d).  That prefix is
    unimodular with det 1 and signature (2, 18), so det = -2d and the
    signature is (2, 19), with no gen(-2d) lattice, block assembly or
    elimination.

    Lambda2d(d) carries its discriminant group from construction: ℤ/2d,
    generated by -e₂₀/(2d).  The form of an orthogonal sum is the sum of
    the forms and E8(-1)^2 + U^2 is unimodular, so the group is that of
    gen(-2d) on the last coordinate (Nikulin, 1979).  The lift is also
    exactly the one the Smith transform of ``discriminant_group`` gives.
    That run takes no pivot of magnitude above 2 in the prefix
    E8(-1)^2 + U^2, so the last row, with |-2d| ≥ 2, is picked only once
    the prefix is done, a tie going to the earlier row.  Every prefix pivot
    ends as a unit, the prefix being unimodular, so the divisibility scan
    never mixes a row into the last one: U = U_prefix ⊕ [-1], whose last
    row over 2d is the lift.
    """
    def scaled(gram_rows, scale_params, base_label):
        if len(scale_params) > 1:
            raise BadParameter(f"too many parameters for {name}")
        s = scale_params[0] if scale_params else 1
        if s == 0:
            raise BadParameter("scale factor must be nonzero")
        label = base_label if s == 1 else f"{base_label}({s})"
        if label in _ATOM_GRAMS:
            return _atom(label)
        return Lattice(IntMatrix(gram_rows).scale(s), label)

    if name == "U":
        return scaled(_U_GRAM, params, "U")
    if name == "E8":
        return scaled(_E8_GRAM, params, "E8")
    if name == "An":
        if not params:
            raise BadParameter("An needs its rank")
        n = params[0]
        if n < 1:
            raise BadParameter("An needs rank >= 1")
        _check_rank(n)
        rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
        return scaled(rows, params[1:], f"An({n})")
    if name == "gen":
        if len(params) != 1:
            raise BadParameter("gen takes exactly one parameter")
        k = params[0]
        if k == 0:
            raise BadParameter("gen(0) is degenerate")
        label, gram = f"gen({k})", IntMatrix([[k]])
        k = gram[0][0]
        if abs(k) > 1:  # ℤ/|k|, generated by sign(k)/|k|
            lift = IntMatrix._trusted(((1 if k > 0 else -1,),), 1)
            group = DiscriminantGroup((abs(k),), RatMatrix._trusted(lift, abs(k)))
        else:
            group = DiscriminantGroup((), RatMatrix._trusted(IntMatrix._trusted((), 1), 1))
        sig = Signature(1, 0) if k > 0 else Signature(0, 1)
        return _trusted(Lattice, gram=gram, label=label, det=k, _signature=sig, _group=group)
    if name == "Lambda2d":
        if len(params) != 1:
            raise BadParameter("Lambda2d takes exactly one parameter")
        d = params[0]
        if d < 1:
            raise BadParameter("Lambda2d needs d >= 1")
        # rows 0..19 of LambdaK3 are zero on the third U, so their first 21
        # entries are the rows of E8(-1)^2 + U^2 with a 0 appended, and
        # their sparse rows are those of the atom
        k3 = _atom("LambdaK3").gram
        sparse = [*k3._sparse_rows()[:20], [(20, -2 * d)]]
        gram = IntMatrix._trusted((*(row[:21] for row in k3[:20]), (0,) * 20 + (-2 * d,)), 21, sparse)
        lift = IntMatrix._trusted(((0,) * 20 + (-1,),), 21)
        group = DiscriminantGroup((2 * d,), RatMatrix._trusted(lift, 2 * d))
        sig = Signature(2, 19)
        return _trusted(Lattice, gram=gram, label=f"Lambda2d({d})", det=-2 * d, _signature=sig, _group=group)
    if name in _ATOM_SUMS:
        if params:
            raise BadParameter(f"{name} takes no parameters")
        return _atom(name)
    raise UnknownAtom(f"unknown lattice name {name!r}")


def signature(L: Lattice) -> Signature:
    """Exact inertia (positive, negative counts) of the form, found by the
    elimination that validated L's Gram or composed from L's parts."""
    return L._signature


def is_even(L: Lattice) -> bool:
    """True when every vector has even self-pairing (even diagonal suffices)."""
    return not any(row[i] % 2 for i, row in enumerate(L.gram))


def dual_basis(L: Lattice) -> RatMatrix:
    """Rows spanning the dual lattice in L-coordinates: the Gram inverse."""
    return invert_rational(L.gram)


@dataclass(frozen=True)
class DiscriminantGroup:
    """Finite quotient (dual lattice)/(lattice).

    ``invariant_factors`` are the cyclic orders d1 | d2 | ... (each > 1);
    row i of ``generator_lifts`` is a dual vector generating the i-th
    cyclic summand.  Integer arithmetic reads the lifts as
    ``generator_lifts._numerators()``, the pair the matrix stores.
    """

    invariant_factors: tuple[int, ...]
    generator_lifts: RatMatrix

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


@dataclass(frozen=True, init=False)
class DiscriminantForm:
    """Discriminant group with its ℚ/2ℤ quadratic and ℚ/ℤ bilinear data.

    It stores only its integers over N, the exponent of the group: q·N mod
    2N and b·N mod N on the generators.  ``q_values`` in [0, 2) and
    ``b_values`` in [0, 1) are views built from them when read.  ``lattice``
    records the source for glue constructions, and is not compared.

    The constructor takes the values as rationals, any representatives:
    they must define a quadratic form on the group, b symmetric,
    dᵢ·b(gᵢ, gⱼ) ∈ ℤ, q(gᵢ) ≡ b(gᵢ, gᵢ) mod 1 and dᵢ²·q(gᵢ) ∈ 2ℤ.  Then
    q and b are well defined on ⊕ ℤ/dᵢ and q(x) ≡ b(x, x) mod 1 for every
    x; this constructor refuses anything else with BadParameter.
    ``discriminant_form`` builds its form through the module's ``_trusted``
    from the integer pairings of the lattice's own lifts, where these
    conditions hold by construction, so it skips the checks.
    """

    group: DiscriminantGroup
    lattice: Lattice = field(compare=False)
    _exponent: int = field(compare=False, repr=False)
    _q_gen: tuple[int, ...]
    _b_gen: tuple[tuple[int, ...], ...]

    def __init__(self, group: DiscriminantGroup, q_values: Sequence, b_values: RatMatrix, lattice: Lattice):
        factors = group.invariant_factors
        s = len(factors)
        if len(q_values) != s or b_values.nrows != s or b_values.ncols != s:
            raise BadParameter(f"a form on {s} generators needs {s} q values and an {s}x{s} b matrix")
        N = factors[-1] if factors else 1
        q = [Fraction(x) * N for x in q_values]
        b = [[x * N for x in row] for row in b_values]
        if any(x.denominator != 1 for x in itertools.chain(q, *b)):
            raise BadParameter(f"discriminant values must lie in (1/{N})ℤ")
        qs = tuple(x.numerator % (2 * N) for x in q)
        bs = tuple(tuple(x.numerator % N for x in row) for row in b)
        for i, d in enumerate(factors):
            if any(bs[i][j] != bs[j][i] for j in range(i)):
                raise BadParameter("b must be symmetric")
            if any(d * x % N for x in bs[i]):
                raise BadParameter(f"b(g{i}, g) must lie in (1/{d})ℤ for the generator g{i} of order {d}")
            if (qs[i] - bs[i][i]) % N:
                raise BadParameter(f"q(g{i}) must equal b(g{i}, g{i}) mod 1")
            if d * d * qs[i] % (2 * N):
                raise BadParameter(f"{d}²·q(g{i}) must lie in 2ℤ for the generator g{i} of order {d}")
        vars(self).update(group=group, lattice=lattice, _exponent=N, _q_gen=qs, _b_gen=bs)

    @property
    def q_values(self) -> tuple[Fraction, ...]:
        """q(gᵢ) in [0, 2), built from the stored integers on each read."""
        return tuple(Fraction(x, self._exponent) for x in self._q_gen)

    @property
    def b_values(self) -> RatMatrix:
        """b(gᵢ, gⱼ) in [0, 1), built from the stored integers on each read."""
        return RatMatrix._over(IntMatrix._trusted(self._b_gen, len(self._b_gen)), self._exponent)

    @property
    def order(self) -> int:
        return self.group.order

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All group elements as coefficient tuples over the generators."""
        return itertools.product(*(range(d) for d in self.group.invariant_factors))

    def q_of(self, element: Sequence[int]) -> Fraction:
        """Quadratic value of a coefficient tuple, reduced into [0, 2)."""
        # q(Σ cᵢ·gᵢ) = Σ cᵢ·(cᵢ·q(gᵢ) + 2·Σ_{j>i} cⱼ·b(gᵢ, gⱼ))
        terms = enumerate(zip(element, self._q_gen, self._b_gen))
        total = sum(c * (c * q + 2 * sum(map(mul, row[i + 1 :], element[i + 1 :]))) for i, (c, q, row) in terms)
        return Fraction(total % (2 * self._exponent), self._exponent)

    def b_of(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        """Bilinear value of two coefficient tuples, reduced into [0, 1)."""
        total = sum(c * sum(map(mul, row, y)) for c, row in zip(x, self._b_gen))
        return Fraction(total % self._exponent, self._exponent)


def discriminant_group(L: Lattice) -> DiscriminantGroup:
    """Invariant factors and generator lifts of (dual)/(lattice).

    Write U·G·V = S in Smith form.  The rows w_i of V^{-1} with invariant
    factor d_i > 1 generate ℤⁿ/ℤⁿG ≅ ⊕ ℤ/d_i, and pulling back along
    x ↦ x·G turns w_i into the dual vector w_i·G^{-1} of order d_i.  Since
    G^{-1} = V·S^{-1}·U, that lift is w_i·V·S^{-1}·U = e_i·S^{-1}·U =
    U_i/d_i: row i of U over d_i, read off the Smith transform with no
    rational solve.  L keeps the group, so it is computed once per lattice;
    ``standard("Lambda2d", d)`` and ``standard("gen", k)`` attach their
    groups when they build the lattice, so they run no Smith form here.
    A relabelled copy, as ``evaluate_expr``, ``as_lattice`` and
    ``build_iota2d`` make, carries the group of the lattice it copies.
    """
    if L._group is None:
        n = L.rank
        U, S, _ = _smith(L.gram, True, False)
        rows = [i for i in range(n) if S[i][i] > 1]
        factors = tuple([S[i][i] for i in rows])
        N = factors[-1] if factors else 1  # every d_i divides N
        num = tuple([tuple([x * (N // S[i][i]) for x in U[i]]) for i in rows])
        # num/N is in lowest terms: its last row is a row of the unimodular U, of gcd 1
        lifts = RatMatrix._trusted(IntMatrix._trusted(num, n), N)
        vars(L)["_group"] = DiscriminantGroup(factors, lifts)
    return L._group


def discriminant_form(L: Lattice) -> DiscriminantForm:
    """Quadratic/bilinear discriminant data; defined for even lattices only.

    Every value is one entry p of the integer product num·G·numᵀ over
    den², num/den being the generator lifts: q·N = p·N/den² mod 2N on the
    diagonal and b·N = p·N/den² mod N, for the exponent N.  Each quotient
    is an integer, since N·x lies in L for every dual vector x; that is
    checked explicitly, as a zero remainder of each exact division by den²,
    and the form is built from those integers with no other check.
    """
    if not is_even(L):
        raise OddLattice("discriminant form needs an even lattice")
    group = discriminant_group(L)
    num, den = group.generator_lifts._numerators()
    factors = group.invariant_factors
    N, dd = (factors[-1] if factors else 1), den * den
    pairings = [[p * N for p in row] for row in _congruence(num, L.gram)]
    if any(p % dd for row in pairings for p in row):
        raise InvariantViolation("a discriminant pairing times the exponent is not an integer", lattice=L)
    q = tuple([row[i] // dd % (2 * N) for i, row in enumerate(pairings)])
    b = tuple([tuple([p // dd % N for p in row]) for row in pairings])
    return _trusted(DiscriminantForm, group=group, lattice=L, _exponent=N, _q_gen=q, _b_gen=b)


def min_generators(A: DiscriminantGroup) -> int:
    """Smallest size of a generating set (number of invariant factors)."""
    return len(A.invariant_factors)


class _ElementTable:
    """Every element of a finite quadratic module on ⊕ ℤ/dᵢ (i < s), given
    by q(gᵢ)·M mod 2M and b(gᵢ, gⱼ)·M mod M on the generators for a
    modulus M.

    The element Σ cᵢ·gᵢ with 0 ≤ cᵢ < dᵢ is the int Σ cᵢ·wᵢ, where
    wᵢ = dᵢ₊₁⋯dₛ₋₁, so int order is the lexicographic order of coefficient
    tuples.  ``q[x]`` = q(x)·M mod 2M is filled one generator at a time:
    for x in the span of g₀, ..., gᵢ₋₁, q(x + c·gᵢ) = q(x) + c·(c·q(gᵢ) +
    2b(gᵢ, x)), so each value costs O(s), and b is read off q.
    """

    __slots__ = ("factors", "modulus", "generators", "q", "_radices")

    def __init__(self, factors: tuple[int, ...], M: int, q_gen: Sequence[int], b_gen: Sequence[Sequence[int]]):
        self.factors, self.modulus = factors, M
        q, M2 = [0], 2 * M
        for i, d in enumerate(factors):
            # b(gᵢ, x)·M, not reduced, for the x filled so far (x = 0 alone before g₀), in order
            b = [sum(map(mul, b_gen[i], c)) for c in itertools.product(*map(range, factors[:i]))] if i else [0]
            qi = q_gen[i]
            q = [(x + c * (c * qi + 2 * y)) % M2 for x, y in zip(q, b) for c in range(d)]
        w = len(q)
        self.q, self._radices = q, [(w := w // d, d, w * d) for d in factors]
        self.generators = [w for w, _, _ in self._radices]

    def add(self, x: int, y: int) -> int:
        # coefficient by coefficient mod dᵢ: the int sum less dᵢ·wᵢ for each cᵢ that wraps
        z = x + y
        for w, d, dw in self._radices:
            if x // w % d + y // w % d >= d:
                z -= dw
        return z

    def b(self, x: int, y: int) -> int:
        """b(x, y)·M mod M, from 2·b(x, y) = q(x + y) - q(x) - q(y)."""
        return (self.q[self.add(x, y)] - self.q[x] - self.q[y]) // 2 % self.modulus

    def coefficients(self, x: int) -> tuple[int, ...]:
        return tuple(x // w % d for w, d, _ in self._radices)

    def orders(self) -> list[int]:
        """The order of each element, filled one generator at a time like q."""
        orders = [1]
        for d in self.factors:
            orders = [lcm(o, d // gcd(d, c)) for o in orders for c in range(d)]
        return orders

    def independent(self, elements: Sequence[int], p: int) -> bool:
        """Whether the coefficient tuples of ``elements`` are independent mod p."""
        return len(_echelon_mod(list(map(self.coefficients, elements)), p, len(self.factors))[1]) == len(elements)


def _primary_part(F: DiscriminantForm, p: int) -> tuple:
    """The p-primary part of F as the arguments of its _ElementTable: the
    generators hᵢ = (dᵢ/p^eᵢ)·gᵢ of order p^eᵢ, for the eᵢ = v_p(dᵢ) > 0,
    with q and b over P = p^max(e)."""
    N = F._exponent
    P = gcd(N, p ** N.bit_length())  # the p-part of N
    shift = N // P  # q(hᵢ)·N and b(hᵢ, hⱼ)·N are multiples of N/P, since hᵢ has order p^eᵢ
    part = [(i, d // gcd(d, P)) for i, d in enumerate(F.group.invariant_factors) if d % p == 0]
    factors = tuple([F.group.invariant_factors[i] // m for i, m in part])
    q = [m * m * F._q_gen[i] // shift % (2 * P) for i, m in part]
    return factors, P, q, [[m * n * F._b_gen[i][j] // shift % P for j, n in part] for i, m in part]


def _prime_divisors(n: int) -> list[int]:
    # by trial division: n is at most the order of a group within the cap
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def _jordan_symbols(part: tuple, p: int, sign: int) -> list[int] | None:
    """For an odd p-part of sign·F, given by ``_primary_part``, the Legendre
    symbol of det(p^k·b(hᵢ, hⱼ) mod p) over the hᵢ of order p^k, per scale
    p^k; None when one of those dets is 0 mod p, which is exactly when b is
    degenerate on the part.

    With the hᵢ ordered by scale, b pairs the socle element p^(eᵢ-1)·hᵢ with
    no hⱼ of smaller scale, so the socle pairing is block triangular with
    these blocks on its diagonal.  A change of generators acts on each
    block mod p by a congruence, so each symbol is an invariant; for odd p a
    non-degenerate form is determined by its Jordan ranks and these symbols
    (Miranda–Morrison, 2009).
    """
    factors, P, _, b_gen = part
    symbols = []
    for pk in sorted(set(factors)):
        block = [i for i, d in enumerate(factors) if d == pk]
        rows = tuple(tuple(b_gen[i][j] // (P // pk) % p for j in block) for i in block)
        det = _det_and_inertia(IntMatrix._trusted(rows, len(block)))[0] * sign ** len(block) % p
        if det == 0:
            return None
        symbols.append(pow(det, (p - 1) // 2, p))
    return symbols


def _search_isomorphism(T1: _ElementTable, T2: _ElementTable, sign: int) -> bool:
    """Decide T1 ≅ sign·T2 for two forms on one p-group ⊕ ℤ/dᵢ by search over
    generator images, pruned by element order and by the q and b values.
    An isometry keeps the count of elements per (order, q), so a part whose
    counts differ is refused at once.  Images generate A_p exactly when
    they span A_p/pA_p, its Frattini quotient (Burnside's basis theorem), so
    an image is kept only while the chosen images stay independent mod p."""
    gens, M = T1.generators, T1.modulus
    (p,) = _prime_divisors(M)
    # the (order, q) of each element as one int, order·2M + q(x)·M
    orders = [o * 2 * M for o in T1.orders()]
    keys1, keys2 = list(map(add, orders, [sign * q % (2 * M) for q in T1.q])), list(map(add, orders, T2.q))
    if Counter(keys1) != Counter(keys2):
        return False
    candidates = [[y for y, key in enumerate(keys2) if key == keys1[g]] for g in gens]
    want_b = [[sign * T1.b(g, h) % M for h in gens[:i]] for i, g in enumerate(gens)]
    chosen: list[int] = []

    def search(i: int) -> bool:
        if i == len(gens):
            return True
        for y in candidates[i]:
            if all(T2.b(y, z) == want for z, want in zip(chosen, want_b[i])):
                chosen.append(y)
                if T2.independent(chosen, p) and search(i + 1):
                    return True
                chosen.pop()
        return False

    try:
        return search(0)
    finally:
        del search  # the closure holds itself: unbound, it leaves no reference cycle


def disc_form_isomorphic(
    F1: DiscriminantForm,
    F2: DiscriminantForm,
    negate: bool = False,
    cap: int = BRUTE_FORCE_CAP,
) -> bool:
    """Decide whether F1 ≅ F2 (or F1 ≅ -F2 when ``negate``) as finite quadratic forms.

    A finite quadratic form is the orthogonal sum of its p-primary parts
    (Nikulin 1979, §1), and an isomorphism maps each part onto the same
    part, so the forms are compared one prime p | N at a time.  For odd p,
    the Jordan ranks are fixed by the invariant factors, and q is fixed by
    b (since dᵢ²·q(gᵢ) ∈ 2ℤ, checked when a form is built); a
    non-degenerate part is then decided by the Legendre symbols of its
    Jordan determinants, which ``negate`` multiplies by (-1/p) per
    generator.  The 2-part and an odd part that is degenerate in both forms
    are decided by a search over generator images on the element tables
    of that part alone, so it costs |A_2| rather than |A|: a part whose
    counts of elements per (element order, q) differ is refused at once,
    and the images are kept only while they stay independent in A_p/pA_p.
    Groups larger than ``cap`` are still rejected.
    """
    if F1.group.invariant_factors != F2.group.invariant_factors:
        return False
    if F1.order > cap:
        raise TooLarge(f"|A| = {F1.order} exceeds the brute-force cap {cap}")
    sign = -1 if negate else 1
    for p in _prime_divisors(F1._exponent):
        part1, part2 = _primary_part(F1, p), _primary_part(F2, p)
        if p != 2:
            symbols1, symbols2 = _jordan_symbols(part1, p, 1), _jordan_symbols(part2, p, sign)
            # a degenerate part is isomorphic to no non-degenerate one
            if symbols1 is not None or symbols2 is not None:
                if symbols1 != symbols2:
                    return False
                continue
        if not _search_isomorphism(_ElementTable(*part1), _ElementTable(*part2), sign):
            return False
    return True


def lattice_to_json(L: Lattice) -> dict:
    """Canonical JSON payload: {"label": string?, "gram": [[int]]}."""
    out: dict = {"gram": L.gram.tolist()}
    if L.label is not None:
        out["label"] = L.label
    return out


def _json_numbers(value, name: str):
    # a JSON number or nested list of them; true and false would read as 1, 0
    pending = [value]
    while pending:
        x = pending.pop()
        if isinstance(x, bool):
            raise BadParameter(f"{name} must hold numbers, not true or false")
        if isinstance(x, list):
            pending.extend(x)
    return value


def lattice_from_json(data: dict) -> Lattice:
    if not isinstance(data, dict) or "gram" not in data:
        raise BadParameter("lattice JSON needs a 'gram' key")
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise BadParameter("lattice label must be a string")
    return make_lattice(_json_numbers(data["gram"], "gram"), label)
