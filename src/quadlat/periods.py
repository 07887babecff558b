"""Exact period vectors over imaginary quadratic fields.

A period ω = re + √D·im (D squarefree, negative) spans the line that a
weight-zero K3-type Hodge structure puts in bidegree (-1, 1).  Membership
in the period domain means ψ(ω, ω) = 0 and ψ(ω, ω̄) > 0; the algebraic
part NS of the lattice L is everything orthogonal to ω and the
transcendental part T is its complement.  Restricting coefficients to a
quadratic field keeps the whole computation exact: every value of ψ is
read off one integer product, rows·G·rowsᵀ, of the two arguments' (re, im)
numerators.

For a valid period the plane P = ℚ·re + ℚ·im is positive definite:
ψ(ω, ω) = 0 gives ψ(re, im) = 0 and ψ(re, re) = −D·ψ(im, im), and then
ψ(ω, ω̄) = 2·ψ(re, re) > 0, with −D > 0.  So L ⊗ ℚ = P ⊕ P^⊥, the form
restricted to NS = P^⊥ ∩ L is non-degenerate, and T = NS^⊥ is P ∩ L, the
saturation of the plane: the complement closure and the span closure are
one lattice, and each function below computes it one way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import index

from .errors import BadParameter, NotIsotropic, NotPositive, TooLarge, WrongSignature
from .lattice import Lattice, _json_numbers, _trusted, lattice_from_json, lattice_to_json, signature
from .linalg import IntMatrix, RatMatrix
from .embeddings import SublatticeEmbedding, orthogonal_complement, saturate


#: Largest |D| accepted for a field discriminant (about 10⁵ trial divisions).
DISCRIMINANT_BOUND = 10**15


def _check_field_discriminant(d: int) -> None:
    # Trial division by every k with k³ ≤ m leaves a cofactor m with at
    # most two prime factors, squarefree exactly when not a square > 1.
    if d >= 0:
        raise BadParameter("field discriminant must be negative")
    m = -d
    if m > DISCRIMINANT_BOUND:
        raise TooLarge(f"|D| is above the squarefree-test bound {DISCRIMINANT_BOUND}")
    k = 2
    while k * k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                raise BadParameter(f"{d} is not squarefree")
        k += 1
    if m > 1 and isqrt(m) ** 2 == m:
        raise BadParameter(f"{d} is not squarefree")


@dataclass(frozen=True)
class QuadScalar:
    """Element a + b·√d of an imaginary quadratic field (d squarefree, < 0)."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        _check_field_discriminant(self.d)
        vars(self).update(a=Fraction(self.a), b=Fraction(self.b))

    def __add__(self, other: "QuadScalar") -> "QuadScalar":
        self._same_field(other)
        return _trusted(QuadScalar, a=self.a + other.a, b=self.b + other.b, d=self.d)

    def __sub__(self, other: "QuadScalar") -> "QuadScalar":
        return self + -other

    def __mul__(self, other: "QuadScalar") -> "QuadScalar":
        self._same_field(other)
        return _trusted(
            QuadScalar,
            a=self.a * other.a + self.d * self.b * other.b,
            b=self.a * other.b + self.b * other.a,
            d=self.d,
        )

    def __neg__(self) -> "QuadScalar":
        return _trusted(QuadScalar, a=-self.a, b=-self.b, d=self.d)

    def conjugate(self) -> "QuadScalar":
        return _trusted(QuadScalar, a=self.a, b=-self.b, d=self.d)

    def is_rational(self) -> bool:
        return self.b == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _same_field(self, other: "QuadScalar") -> None:
        if self.d != other.d:
            raise BadParameter("mixed quadratic fields")


@dataclass(frozen=True)
class PeriodVector:
    """ω = re + √d·im with rational coordinate rows over a fixed lattice.

    re and im enter integer arithmetic once, as the rows of one integer
    matrix over their common denominator.  Scaling both by that positive
    constant keeps their span, the kernels below and every sign.
    """

    lattice: Lattice
    d: int
    re: tuple[Fraction, ...]
    im: tuple[Fraction, ...]

    def __post_init__(self):
        _check_field_discriminant(self.d)
        vars(self).update(re=tuple(Fraction(x) for x in self.re), im=tuple(Fraction(x) for x in self.im))
        n = self.lattice.rank
        if len(self.re) != n or len(self.im) != n:
            raise BadParameter("coordinate length does not match lattice rank")
        if all(x == 0 for x in self.im):
            raise BadParameter("period must be genuinely non-real (im != 0)")
        rows, den = RatMatrix([self.re, self.im])._numerators()
        vars(self).update(_rows=rows, _den=den)


def _pairings(omega: PeriodVector, rows: IntMatrix) -> IntMatrix:
    # den·den′·ψ between the rows (re, im) of ω and the rows (re′, im′) of
    # v = re′ + √d·im′ over their denominator den′: ψ(ω, v)·den·den′ is
    # p₀₀ + d·p₁₁ + √d·(p₀₁ + p₁₀), and ψ(ω, ω̄)·den² is p₀₀ − d·p₁₁
    return omega._rows @ omega.lattice.gram @ rows.transpose()


@dataclass(frozen=True)
class HodgeSplit:
    """Orthogonal pair: algebraic (ns) and transcendental (trans) sublattices."""

    ns: SublatticeEmbedding
    trans: SublatticeEmbedding


def period_pairing(omega: PeriodVector, re2, im2) -> QuadScalar:
    """ψ(ω, v) for v = re2 + √d·im2, as an exact quadratic scalar."""
    n = omega.lattice.rank
    if len(re2) != n or len(im2) != n:
        raise BadParameter("coordinate length does not match lattice rank")
    rows, den = RatMatrix([re2, im2])._numerators()
    p = _pairings(omega, rows)
    den *= omega._den
    rational, irrational = p[0][0] + omega.d * p[1][1], p[0][1] + p[1][0]
    return _trusted(QuadScalar, a=Fraction(rational, den), b=Fraction(irrational, den), d=omega.d)


def validate_period(omega: PeriodVector) -> PeriodVector:
    """Check period-domain membership: plus-part 2, ψ(ω,ω) = 0, ψ(ω,ω̄) > 0."""
    pairing_with_conjugate(omega)
    return omega


def pairing_with_conjugate(omega: PeriodVector) -> Fraction:
    """ψ(ω, ω̄), an exact positive rational; raises unless ω is a valid period."""
    if signature(omega.lattice).plus != 2:
        raise WrongSignature("period domain needs a lattice with exactly two positive squares")
    p = _pairings(omega, omega._rows)
    if p[0][0] + omega.d * p[1][1] or p[0][1]:
        raise NotIsotropic("period is not isotropic: ψ(ω, ω) != 0")
    conj = p[0][0] - omega.d * p[1][1]  # ψ(ω, ω̄)·den²
    if conj <= 0:
        raise NotPositive("ψ(ω, ω̄) must be positive")
    return Fraction(conj, omega._den**2)


def neron_severi(omega: PeriodVector) -> SublatticeEmbedding:
    """Sublattice of classes orthogonal to ω (both field components).

    Saturated by construction, hence primitive.
    """
    validate_period(omega)
    return orthogonal_complement(_plane(omega))


def _plane(omega: PeriodVector) -> SublatticeEmbedding:
    # the plane (re, im) of a validated ω: dependent, ω = λ·v (v real) would
    # have ψ(v, v) = 0 from ψ(ω, ω) = 0, so ψ(ω, ω̄) = λλ̄·ψ(v, v) = 0
    return _trusted(SublatticeEmbedding, ambient=omega.lattice, basis=omega._rows)


def transcendental(omega: PeriodVector) -> HodgeSplit:
    """Split the lattice into its algebraic part NS and T = NS^⊥.

    The plane of a valid period is positive definite (module docstring),
    so the form restricted to NS is non-degenerate, NS ⊕ T has finite
    index in the lattice and ω lies in the rational span of T = P ∩ L.
    """
    ns = neron_severi(omega)
    return HodgeSplit(ns, orthogonal_complement(ns))


def minimal_hodge_sublattice(omega: PeriodVector) -> SublatticeEmbedding:
    """Smallest primitive sublattice whose rational span contains ω.

    The saturation of the plane P spanned by re and im, which is P ∩ L.
    P is positive definite for a valid period (module docstring), so this
    is also the transcendental part ``transcendental(omega).trans``.
    """
    validate_period(omega)
    return saturate(_plane(omega))


def period_to_json(omega: PeriodVector) -> dict:
    """JSON payload with rationals as exact "p/q" strings."""
    return {
        "lattice": lattice_to_json(omega.lattice),
        "D": omega.d,
        "re": [str(x) for x in omega.re],
        "im": [str(x) for x in omega.im],
    }


def _rationals_from_json(values) -> tuple[Fraction, ...]:
    # JSON integers or exact strings such as "-2/3" or "1.5"; a float is refused, and
    # so is "1e9", from which Fraction would build the whole power of ten
    if not isinstance(values, list):
        raise TypeError("re and im must be lists")
    if any(isinstance(x, str) and ("e" in x or "E" in x) for x in values):
        raise BadParameter("malformed period JSON: a rational string may not use exponent notation")
    return tuple(Fraction(x) if isinstance(x, str) else Fraction(index(x)) for x in values)


def period_from_json(data: dict) -> PeriodVector:
    if not isinstance(data, dict):
        raise BadParameter("period JSON must be an object")
    try:
        lattice = lattice_from_json(data["lattice"])
        d = index(_json_numbers(data["D"], "D"))
        re = _rationals_from_json(_json_numbers(data["re"], "re"))
        im = _rationals_from_json(_json_numbers(data["im"], "im"))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise BadParameter(f"malformed period JSON: {exc}") from exc
    return PeriodVector(lattice, d, re, im)
