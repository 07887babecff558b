"""Sublattices, orthogonal complements, and primitive embeddings.

Contains the sufficient-condition check for embedding an even lattice
primitively into an even unimodular one, the canonical embedding of the
rank-21 polarized-K3 lattice into the rank-28 even unimodular lattice of
signature (2, 26), and the isometry extension that acts trivially on the
orthogonal complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

from .errors import (
    BadParameter,
    DimensionMismatch,
    InvariantViolation,
    NotAnIsometry,
    NotDefinite,
    NotInTildeO,
    NotRepresented,
    NotSpecialOrthogonal,
    OddLattice,
    ParityViolation,
    TooLarge,
)
from .lattice import (
    Lattice,
    Signature,
    _relabelled,
    _symmetric_lattice,
    _trusted,
    discriminant_group,
    is_even,
    min_generators,
    signature,
    standard,
)
from .linalg import (
    IntMatrix,
    _congruence,
    _smith,
    _symmetric_elimination,
    det_exact,
    kernel_basis,
    solve_rational,
)


@dataclass(frozen=True)
class SublatticeEmbedding:
    """Sublattice of an ambient lattice, given by basis rows in ambient coordinates.

    Rows must be linearly independent, and this constructor checks that
    det(B·Bᵀ) ≠ 0.  The embeddings the package builds itself skip the
    check through ``lattice._trusted``: ``orthogonal_complement`` and
    ``saturate``, whose ``kernel_basis`` rows are independent by
    construction, ``build_iota2d``, whose exact induced Gram is the
    non-degenerate Lambda2d Gram, and the plane (re, im) of a validated
    period (``periods``).  The induced form may be degenerate
    (quotient computations need that); operations requiring a
    non-degenerate restriction check it themselves.  An embedding keeps
    its orthogonal complement, its induced lattice (``as_lattice``,
    unlabelled) and its saturation index once each is computed, each a
    class attribute of None until then.  ``build_iota2d`` states all
    three: the lattice with the Lambda2d lattice its induced Gram was
    checked against, and the group that lattice carries; the complement
    with the kernel in the third E8(-1) summand that the generic one
    equals, and with its lattice (det −2d, signature (0, 7)); the index
    with gcd(v), which its unit rows leave as the only invariant factor.
    A complement that ``orthogonal_complement`` builds in a unimodular
    ambient from a source of lower rank keeps the source's basis
    (``_source``), from which ``as_lattice`` reads its det and signature.
    It keeps the basis, not the source: the source holds the complement,
    so that would be a reference cycle.
    """

    ambient: Lattice
    basis: IntMatrix
    _complement = None  # kept by orthogonal_complement, or stated by build_iota2d
    _lattice = None  # kept by as_lattice, or stated by build_iota2d
    _index = None  # kept by saturation_index, or stated by build_iota2d
    _source = None  # a complement's source basis, set by orthogonal_complement

    def __post_init__(self):
        if not isinstance(self.basis, IntMatrix):
            rows = list(self.basis)  # a wrong width meets the check below
            vars(self)["basis"] = IntMatrix(rows, ncols=None if rows else self.ambient.rank)
        b = self.basis
        if b.ncols != self.ambient.rank:
            raise DimensionMismatch("basis width does not match ambient rank")
        # B·Bᵀ is singular exactly when the rows are dependent (Cauchy–Binet);
        # more rows than columns are dependent, refused before the k×k product
        if b.nrows > b.ncols or det_exact(b @ b.transpose()) == 0:
            raise BadParameter("basis rows are linearly dependent")

    @property
    def rank(self) -> int:
        return self.basis.nrows


def induced_gram(E: SublatticeEmbedding) -> IntMatrix:
    """Gram matrix of the sublattice in its own basis."""
    return _congruence(E.basis, E.ambient.gram)


def as_lattice(E: SublatticeEmbedding, label: str | None = None) -> Lattice:
    """The sublattice as an abstract lattice (requires non-degenerate restriction).

    E keeps the unlabelled lattice, so its Gram is built and validated once
    per embedding; a label gives a relabelled copy.  The Gram is the
    congruence B·G·Bᵀ, symmetric by construction, so it is validated by
    the det/signature elimination alone (``lattice._symmetric_lattice``),
    which refuses a degenerate restriction with ``Degenerate``.

    A complement C = S^⊥ that keeps the basis of S (``orthogonal_complement``
    in a unimodular ambient L, S of lower rank than C) runs the
    elimination of S's Gram in place of its own.  S_sat = ℚS ∩ L is
    primitive in L, so |det C| = |det S_sat| = |det S|/[S_sat:S]² (Nikulin
    1979, §1.6); for a non-degenerate S, ℚS ⊕ ℚC is all of ℚL, so
    sig C = sig L − sig S, and the sign of each det is (-1)^minus.  Hence
    det C = det L·det S/[S_sat:S]², from the lattice and the saturation
    index of S, the division checked to be exact.  S is degenerate
    exactly when C is, both radicals spanning ℚS ∩ ℚC, so the lattice of
    S raises the same ``Degenerate``.  The trade is a rank-k elimination
    and a Smith form of the k×n basis of S for a rank-(n−k) elimination,
    which is why a source of rank k ≥ n − k is not kept.
    """
    if E._lattice is None:
        L = _symmetric_lattice(induced_gram(E)) if E._source is None else _complement_lattice(E)
        vars(E)["_lattice"] = L
    L = E._lattice
    return L if label is None else _relabelled(L, label)


def _complement_lattice(C: SublatticeEmbedding) -> Lattice:
    # C = S^⊥ in a unimodular ambient, C keeping S's basis: det and signature read off S
    S = _trusted(SublatticeEmbedding, ambient=C.ambient, basis=C._source)
    sub, k = as_lattice(S), saturation_index(S)
    det, r = divmod(C.ambient.det * sub.det, k * k)
    if r:
        raise InvariantViolation(
            "the complement det is not an integer", ambient_det=C.ambient.det, sub_det=sub.det, index=k
        )
    (plus, minus), (s_plus, s_minus) = C.ambient._signature, sub._signature
    return _trusted(Lattice, gram=induced_gram(C), det=det, _signature=Signature(plus - s_plus, minus - s_minus))


@dataclass(frozen=True)
class NikulinVerdict:
    """Outcome of the primitive-embedding criterion.

    The criterion is sufficient only, so the negative answer is
    "Unknown", never "impossible".
    """

    failed_conditions: tuple[str, ...]

    @property
    def guaranteed(self) -> bool:
        return not self.failed_conditions

    @property
    def outcome(self) -> str:
        return "Guaranteed" if self.guaranteed else "Unknown"


def nikulin_check(L: Lattice, target: Signature) -> NikulinVerdict:
    """Test the three conditions guaranteeing a primitive embedding of the
    even lattice L into an even unimodular lattice of the target signature:

      (i)   target.plus - target.minus ≡ 0 (mod 8)
      (ii)  target.plus ≥ plus(L) and target.minus ≥ minus(L)
      (iii) corank ≥ minimal number of generators of the discriminant group
    """
    if not is_even(L):
        raise OddLattice("the embedding criterion applies to even lattices")
    sig = signature(L)
    failed = []
    if (target.plus - target.minus) % 8 != 0:
        failed.append("i")
    if target.plus < sig.plus or target.minus < sig.minus:
        failed.append("ii")
    corank = (target.plus + target.minus) - (sig.plus + sig.minus)
    if corank < min_generators(discriminant_group(L)):
        failed.append("iii")
    return NikulinVerdict(tuple(failed))


def saturate(E: SublatticeEmbedding) -> SublatticeEmbedding:
    """Saturation: the intersection of the rational span with the ambient lattice.

    Taken as a double kernel under the plain dot product of ℤⁿ: K =
    kernel_basis(Bᵀ) spans the integer vectors orthogonal to the rows of
    B, and kernel_basis(Kᵀ) is every integer vector orthogonal to K,
    which is ℚB ∩ ℤⁿ.  ``kernel_basis`` returns HNF rows, and the HNF of a
    lattice is unique, so the basis is deterministic.
    """
    perp = kernel_basis(E.basis.transpose())
    return _trusted(SublatticeEmbedding, ambient=E.ambient, basis=kernel_basis(perp.transpose()))


def saturation_index(E: SublatticeEmbedding) -> int:
    """Index of the sublattice inside its saturation (product of invariant factors).

    E keeps it, so the Smith form runs once per embedding;
    ``build_iota2d`` fills it from its construction and runs none.
    """
    if E._index is None:
        _, S, _ = _smith(E.basis, False, False)
        vars(E)["_index"] = prod(S[i][i] for i in range(E.basis.nrows))
    return E._index


def is_primitive(E: SublatticeEmbedding) -> bool:
    return saturation_index(E) == 1


def orthogonal_complement(E: SublatticeEmbedding) -> SublatticeEmbedding:
    """Vectors of the ambient lattice pairing to zero with the sublattice.

    Primitive by construction (it is a kernel sublattice): the HNF basis
    of the left kernel of (B·G)ᵀ, which is unique.  E keeps it, so it is
    computed once per embedding; ``build_iota2d`` fills it from the kernel
    of an 8×1 column, and this returns that basis.  In a unimodular
    ambient, a complement of higher rank than E keeps E's basis, and
    ``as_lattice`` reads its det and signature off E.
    """
    if E._complement is None:
        # G·Bᵀ (n x k; complement = left kernel) is (B·G)ᵀ, G being symmetric
        m = (E.basis @ E.ambient.gram).transpose()
        C = _trusted(SublatticeEmbedding, ambient=E.ambient, basis=kernel_basis(m))
        if abs(E.ambient.det) == 1 and E.rank < C.rank:
            vars(C)["_source"] = E.basis
        vars(E)["_complement"] = C
    return E._complement


# ---------------------------------------------------------------------------
# Short-vector enumeration in definite lattices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _udu(gram: IntMatrix) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    # G = U·D·Uᵀ, U unit upper-triangular: Q(x) = Σ_k d_k (x_k + Σ_{i<k} u_ik x_i)²,
    # read off the symmetric elimination of G with its coordinates reversed.
    # Its row n-1-k gives pivot T_k = det G[k:, k:] (T_n = 1, all > 0 for G
    # positive definite) and holds T_k·u_ik at column n-1-i; d_k = T_k/T_{k+1}.
    n = gram.nrows
    rows = _symmetric_elimination(IntMatrix._trusted(tuple(row[::-1] for row in gram)[::-1], n))
    minors = [row[r] for r, row in enumerate(rows)][::-1] + [1]
    diag = tuple(Fraction(minors[k], minors[k + 1]) for k in range(n))
    coef = tuple(
        tuple(Fraction(rows[n - 1 - k][n - 1 - i] if i < k else 0, minors[k]) for k in range(n)) for i in range(n)
    )
    return diag, coef


def _coord_range(d: Fraction, mu: Fraction, budget: Fraction) -> tuple[int, int]:
    # Integer solutions of d·(x + mu)² ≤ budget.  With mu = s/t the
    # substitution y = t·x + s turns this into y² ≤ floor(budget·t²/d),
    # solved exactly with isqrt.
    bound = budget / d
    s, t = mu.numerator, mu.denominator
    m = bound.numerator * t * t // bound.denominator
    r = isqrt(m)
    lo = -((r + s) // t)
    hi = (r - s) // t
    return lo, hi


# nodes (descend calls, leaves included) the norm search may visit; E8 norm 10 takes 99,009
NORM_SEARCH_CAP = 200_000


def _norm_vectors(gram_pos: IntMatrix, target: int):
    """Yield every x ∈ ℤⁿ with x·G·xᵀ = target, G positive definite, in
    lexicographic order; TooLarge past NORM_SEARCH_CAP search nodes."""
    n = gram_pos.nrows
    diag, coef = _udu(gram_pos)
    x = [0] * n
    nodes = 0

    def descend(level: int, budget: Fraction):
        nonlocal nodes
        nodes += 1
        if nodes > NORM_SEARCH_CAP:
            raise TooLarge(f"the norm search visited {NORM_SEARCH_CAP} nodes, its cap")
        if level == n:
            if budget == 0:
                yield tuple(x)
            return
        d = diag[level]
        mu = Fraction(0)
        for k in range(level):
            if x[k]:
                mu += coef[k][level] * x[k]
        lo, hi = _coord_range(d, mu, budget)
        for v in range(lo, hi + 1):
            x[level] = v
            rem = budget - d * (v + mu) ** 2
            if rem >= 0:
                yield from descend(level + 1, rem)
        x[level] = 0

    try:
        yield from descend(0, Fraction(target))
    finally:
        del descend  # the closure holds itself: unbound, it leaves no reference cycle


def _definite_data(L: Lattice, norm: int) -> tuple[IntMatrix, int]:
    # the positive-definite Gram ±G of a definite L, and the norm it must represent
    sig = signature(L)
    if sig.plus and sig.minus:
        raise NotDefinite(f"lattice has indefinite signature {(sig.plus, sig.minus)}")
    if is_even(L) and norm % 2 != 0:
        raise ParityViolation(f"norm {norm} is odd but the lattice is even")
    return (L.gram, norm) if sig.minus == 0 else (L.gram.scale(-1), -norm)


def find_primitive_vector(L: Lattice, norm: int) -> tuple[int, ...]:
    """Lexicographically least primitive vector of the given self-pairing.

    Depth-first branch-and-bound over the exact square-completed form;
    deterministic because coordinates are scanned in increasing order.
    """
    g, target = _definite_data(L, norm)
    if target <= 0:
        raise NotRepresented(f"definite lattice cannot represent {norm}")
    for vec in _norm_vectors(g, target):
        if gcd(*vec) == 1:
            return vec
    raise NotRepresented(f"no primitive vector of norm {norm}")


def count_norm_vectors(L: Lattice, norm: int) -> int:
    """Full count of lattice vectors with the given self-pairing."""
    g, target = _definite_data(L, norm)
    if target < 0:
        return 0
    return sum(1 for _ in _norm_vectors(g, target))


# ---------------------------------------------------------------------------
# The canonical rank-21 -> rank-28 embedding and its isometry extension
# ---------------------------------------------------------------------------

def build_iota2d(d: int) -> SublatticeEmbedding:
    """Canonical primitive embedding Lambda2d(d) -> LambdaSharp.

    The two E8(-1) summands and the two hyperbolic planes map identically
    onto the matching summands of the ambient; the rank-one gen(-2d)
    summand maps onto the lexicographically least primitive vector v of
    norm -2d inside the third E8(-1) summand.

    The embedding comes with its lattice (``standard("Lambda2d", d)``
    relabelled, group included), its orthogonal complement and its
    saturation index.  The complement is the kernel of the 8×1 column
    G₈·vᵀ, G₈ the E8(-1) Gram, padded to coordinates 16..23: the same rows
    as the generic ``orthogonal_complement``, at the cost of an 8-row
    kernel in place of a 28-row one.  Lambda2d(d) is primitive in the
    unimodular LambdaSharp, so the complement's lattice has det −2d and
    signature (0, 7) with no elimination.  Rows 0..19 are unit vectors on
    coordinates that v does not touch, so the Smith form of the basis is
    I ⊕ [gcd(v)], and the index is gcd(v) with no Smith form.
    """
    if d < 1:
        raise BadParameter("d must be a positive integer")
    sharp, e8 = standard("LambdaSharp"), standard("E8", -1)
    v = find_primitive_vector(e8, -2 * d)
    # E8(-1)^2 occupies ambient coordinates 0..15 and the U^2 block 24..27
    units = (*range(16), *range(24, 28))
    rows = [(0,) * i + (1,) + (0,) * (27 - i) for i in units]
    rows.append((0,) * 16 + tuple(v) + (0,) * 4)  # third E8(-1): coordinates 16..23
    sparse = [[(i, 1)] for i in units] + [[(16 + j, x) for j, x in enumerate(v) if x]]
    basis = IntMatrix._trusted(tuple(rows), 28, sparse)
    # block bookkeeping makes this isometric onto Lambda2d(d); verify exactly,
    # which also proves the rows independent, the Lambda2d Gram being non-degenerate
    induced, lam = _congruence(basis, sharp.gram), standard("Lambda2d", d)
    if induced != lam.gram:
        raise InvariantViolation(
            "iota2d does not induce the Lambda2d Gram", d=d, induced=induced, expected=lam.gram
        )
    # rows 0..19 are the unit vectors of the orthogonal non-degenerate
    # summands E8(-1)^2 and U^2, so x is orthogonal to them exactly when it
    # is zero on coordinates 0..15 and 24..27; the complement is then
    # {y ∈ E8(-1) : y·G₈·vᵀ = 0} on coordinates 16..23.  A lattice has one
    # HNF and zero columns pad an HNF unchanged, so these are the rows of
    # kernel_basis((B·G)ᵀ) that orthogonal_complement would find.
    perp = kernel_basis(e8.gram @ IntMatrix._trusted(tuple((x,) for x in v), 1))
    comp = IntMatrix._trusted(
        tuple((0,) * 16 + row + (0,) * 4 for row in perp), 28,
        [[(16 + j, x) for j, x in row] for row in perp._sparse_rows()],
    )
    # |det| = 2d, Lambda2d(d) being primitive in the unimodular LambdaSharp,
    # and signature (2, 26) − (2, 19) = (0, 7), so det = (-1)^7·2d
    comp_lattice = _trusted(Lattice, gram=_congruence(comp, sharp.gram), det=-2 * d, _signature=Signature(0, 7))
    C = _trusted(SublatticeEmbedding, ambient=sharp, basis=comp, _lattice=comp_lattice)
    return _trusted(
        SublatticeEmbedding, ambient=sharp, basis=basis, _lattice=_relabelled(lam, None), _complement=C, _index=gcd(*v)
    )


def is_isometry(L: Lattice, g: IntMatrix) -> bool:
    """True when g preserves the form.

    Then det(g)²·det G = det G with det G ≠ 0, so det g = ±1 follows.
    """
    if g.nrows != g.ncols or g.nrows != L.rank:
        raise DimensionMismatch("matrix size does not match lattice rank")
    return _congruence(g, L.gram) == L.gram


def in_tilde_O(L: Lattice, g: IntMatrix) -> bool:
    """True when g is an isometry acting trivially on the discriminant group."""
    if not is_isometry(L, g):
        return False
    # each lift must move by a lattice vector
    return (discriminant_group(L).generator_lifts @ (g - IntMatrix.identity(L.rank))).is_integral()


def extend_isometry(E: SublatticeEmbedding, g: IntMatrix) -> IntMatrix:
    """Extend an isometry of the embedded lattice to the ambient lattice,
    acting as the identity on the orthogonal complement.

    Requires det g = +1 and triviality on the discriminant group; the
    integrality of the candidate extension is verified directly rather
    than trusting the sufficient condition, and failure raises
    NotInTildeO.
    """
    sub = as_lattice(E)
    if g.nrows != g.ncols or g.nrows != sub.rank:
        raise DimensionMismatch("matrix size does not match sublattice rank")
    if not is_isometry(sub, g):
        raise NotAnIsometry("matrix does not preserve the sublattice form")
    if det_exact(g) != 1:
        raise NotSpecialOrthogonal("extension requires determinant +1")
    comp = orthogonal_complement(E)  # the one E keeps
    m = E.basis.stack(comp.basis)  # square: the restriction is non-degenerate
    # rows of m are the sub/complement basis vectors: want m·R = (g ⊕ 1)·m,
    # whose right side is g·basis stacked on the complement basis
    x = solve_rational(m, (g @ E.basis).stack(comp.basis))
    if not x.is_integral():
        raise NotInTildeO("extension is not integral on the ambient lattice")
    result = x.to_int()
    if not is_isometry(E.ambient, result):
        raise InvariantViolation(
            "extension does not preserve the ambient form", extension=result, g=g
        )
    return result
