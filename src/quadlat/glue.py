"""Overlattices via isotropic glue subgroups, and reduced binary forms.

An even overlattice of L sits between L and its dual and corresponds to
a subgroup of the discriminant group on which the quadratic form
vanishes (Nikulin 1979, §1.4).  ``isotropic_subgroups`` generates each
such subgroup exactly once, by canonical augmentation (McKay 1998), on
the ints of the form's ``lattice._ElementTable``, and grows each
subgroup's span from its parent's with ``lattice._span``.  Results are
ordered by size and then lexicographically on their element sets, so
output is deterministic.  Glue generators enter integer arithmetic once,
as numerators over their common denominator, kept by ``GlueSubgroup``
from its dual-lattice check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import BadParameter, NotIsotropic, TooLarge
from .lattice import (
    BRUTE_FORCE_CAP,
    DiscriminantForm,
    Lattice,
    _ElementTable,
    _span,
    discriminant_form,
    make_lattice,
)
from .linalg import IntMatrix, RatMatrix, hermite_normal_form

#: Default ceiling on |det| for the binary-form enumeration.
BINARY_DET_CAP = 10_000


@dataclass(frozen=True)
class GlueSubgroup:
    """Isotropic subgroup of a discriminant group, given by generator lifts.

    Rows of ``generators`` are dual vectors in base-lattice coordinates;
    each must pair integrally with the base lattice.
    """

    base: Lattice
    generators: RatMatrix

    def __post_init__(self):
        if not isinstance(self.generators, RatMatrix):
            object.__setattr__(self, "generators", RatMatrix(self.generators, ncols=self.base.rank))
        gens = self.generators
        if gens.ncols != self.base.rank:
            raise BadParameter("generator width does not match base rank")
        num, den = gens._numerators()
        if any(x % den for row in num @ self.base.gram for x in row):
            raise BadParameter("generator does not lie in the dual lattice")
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)


def isotropic_subgroups(F: DiscriminantForm, cap: int = BRUTE_FORCE_CAP) -> list[GlueSubgroup]:
    """Every subgroup of the discriminant group on which q vanishes mod 2ℤ.

    (The bilinear form then vanishes mod ℤ automatically, since
    2·b(x, y) = q(x+y) - q(x) - q(y).)  Includes the trivial subgroup;
    ordered by size, then lexicographically on the sorted coefficient
    tuples of their elements.

    Each subgroup K is reached once, along its canonical generators
    g₁ < g₂ < ... in that order, where gᵢ is the least element of K
    outside span(g₁, ..., gᵢ₋₁); they are the rows of its
    ``GlueSubgroup``.  A child of H = span(g₁, ..., gₖ) adjoins a
    candidate e > gₖ and is kept only when e is the least element of
    span(H, e) outside H.
    """
    if F.order > cap:
        raise TooLarge(f"|A| = {F.order} exceeds the brute-force cap {cap}")
    T = _ElementTable(F.group.invariant_factors, F._exponent, F._q_gen, F._b_gen)
    found = []

    def grow(H, gens, candidates):
        # candidates: isotropic, beyond gens[-1], outside H, b-orthogonal to H;
        # so span(H, e) is isotropic, as q(h + e) = q(h) + q(e) + 2·b(h, e)
        found.append((H, gens))
        for i, e in enumerate(candidates):
            K = _span([e], T.add, H)
            if min(K - H) == e:
                later = [c for c in candidates[i + 1 :] if c not in K and T.b(c, e) == 0]
                grow(K, gens + [e], later)

    grow(frozenset([0]), [], [e for e, q in enumerate(T.q) if e and q == 0])
    found.sort(key=lambda t: (len(t[0]), sorted(t[0])))
    lift_num, den = F.group._lift_num, F.group._lift_den
    rows = [IntMatrix._trusted(tuple(map(T.coefficients, gens)), len(T.factors)) for _, gens in found]
    return [GlueSubgroup(F.lattice, RatMatrix._over(m @ lift_num, den)) for m in rows]


def subgroup_elements(G: GlueSubgroup) -> frozenset[tuple[Fraction, ...]]:
    """Elements of the glue subgroup as dual vectors reduced mod the base lattice."""
    den = G._den
    rows = [tuple(x % den for x in row) for row in G._num]
    span = _span(rows, lambda x, y: tuple((a + b) % den for a, b in zip(x, y)), frozenset([(0,) * G.base.rank]))
    return frozenset(tuple(Fraction(x, den) for x in e) for e in span)


def glue_order(G: GlueSubgroup) -> int:
    return len(subgroup_elements(G))


def overlattice_from_glue(G: GlueSubgroup) -> Lattice:
    """Lattice generated by the base and the glue lifts, with induced Gram.

    Raises NotIsotropic when the result fails to be an even integral
    lattice (which happens exactly when the glue subgroup is not
    isotropic).
    """
    base = G.base
    n = base.rank
    # the lattice is (1/den)·(row span of den·identity and den·lifts)
    den = G._den
    scaled = IntMatrix.identity(n).scale(den).stack(G._num)
    H, _ = hermite_normal_form(scaled)
    basis = IntMatrix(H[:n], ncols=n)  # full rank: contains den·identity
    num = basis @ base.gram @ basis.transpose()  # den² times the Gram
    den2 = den * den
    if any(x % den2 for row in num for x in row):
        raise NotIsotropic("glue subgroup is not isotropic: non-integral pairing")
    gram_int = IntMatrix([[x // den2 for x in row] for row in num], ncols=n)
    if any(gram_int[i][i] % 2 for i in range(n)):
        raise NotIsotropic("glue subgroup is not isotropic: odd vector norm")
    return make_lattice(gram_int)


def even_overlattices(L: Lattice, cap: int = BRUTE_FORCE_CAP) -> list[Lattice]:
    """One even overlattice per isotropic glue subgroup of L.

    Index i of the result corresponds to index i of
    ``isotropic_subgroups(discriminant_form(L))``.  Overlattices are not
    deduplicated up to isometry.
    """
    return [overlattice_from_glue(G) for G in isotropic_subgroups(discriminant_form(L), cap)]


def enumerate_even_binary(det: int, definite_sign: int, cap: int = BINARY_DET_CAP) -> list[Lattice]:
    """All even definite rank-2 lattices with the given Gram determinant,
    one per isometry class.

    Gram [[2a, b], [b, 2c]] is reduced to 0 ≤ b ≤ a ≤ c, the unique
    representative of its GL2(ℤ)-class; then det = 4ac - b² ≥ 3a².
    Definite rank-2 Gram determinants are positive, so a non-positive
    ``det`` yields the empty list.
    """
    if definite_sign not in (1, -1):
        raise BadParameter("definite_sign must be +1 or -1")
    if abs(det) > cap:
        raise BadParameter(f"|det| = {abs(det)} exceeds the enumeration cap {cap}")
    s, out = definite_sign, []
    for a in range(1, isqrt(max(det, 0) // 3) + 1):
        for b in range(a + 1):
            c, r = divmod(det + b * b, 4 * a)
            if r == 0 and c >= a:
                out.append(make_lattice([[2 * a * s, b * s], [b * s, 2 * c * s]]))
    return out
