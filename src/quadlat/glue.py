"""Overlattices via isotropic glue subgroups, and reduced binary forms.

An even overlattice of L sits between L and its dual and corresponds to
a subgroup of the discriminant group on which the quadratic form
vanishes (Nikulin 1979, §1.4).  ``isotropic_subgroups`` generates each
such subgroup exactly once, by canonical augmentation (McKay 1998), on
the ints of the form's ``lattice._ElementTable``.  It tests a candidate
one coset of its span at a time, dropping it at the first element below
it, and refuses with ``TooLarge`` once it has built more than
``GLUE_SEARCH_CAP`` coset elements.  Results are ordered by size and
then lexicographically on their element sets, so output is
deterministic.

The glue path runs on integers from the form to the overlattice.  The
public ``GlueSubgroup`` constructor checks that its generators lie in
the dual lattice; ``isotropic_subgroups`` builds its subgroups from
integer combinations of the group's own lifts through the unchecked
builder ``lattice._trusted``.  A subgroup is read through the integer
form num/den of its generators and a triangular basis, ``_glue_basis``,
which the subgroup keeps: the overlattice, its order
(``glue_order``, the one formula for |M/L|, which the CLI reports) and
its elements all come from that basis, with no closure under addition.
Glue of denominator 1 is the trivial subgroup L/L, whose overlattice is L
itself (Nikulin 1979, §1.4): its basis is the identity, with no Hermite
form, and ``overlattice_from_glue`` returns L, with its group, once L is
checked even.  Every other subgroup takes one Hermite normal form, and
its overlattice Gram is the congruence of that basis divided exactly by
den², each remainder checked zero.  ``overlattice_from_glue`` checks
that the glue is isotropic, whichever path built it, and takes the
overlattice's det and signature from the base lattice and ``glue_order``,
with no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod
from operator import mul

from .errors import BadParameter, InvariantViolation, NotIsotropic, TooLarge
from .lattice import (
    BRUTE_FORCE_CAP,
    DiscriminantForm,
    Lattice,
    _ElementTable,
    _relabelled,
    _trusted,
    discriminant_form,
    is_even,
    make_lattice,
)
from .linalg import IntMatrix, RatMatrix, _congruence, _frozen, _hnf, _ident_rows

#: Default ceiling on |det| for the binary-form enumeration.
BINARY_DET_CAP = 10_000

#: Ceiling on the coset elements one ``isotropic_subgroups`` search may
#: build, each one group addition: U(2)^4 needs 101,428 and U(6)^2 48,066.
#: Fixed: the ``cap`` on |A| does not change it.
GLUE_SEARCH_CAP = 1_000_000


@dataclass(frozen=True)
class GlueSubgroup:
    """Isotropic subgroup of a discriminant group, given by generator lifts.

    Rows of ``generators`` are dual vectors in base-lattice coordinates;
    the integer functions below read them as ``generators._numerators()``.
    This constructor checks that each row pairs integrally with the base
    lattice.  ``isotropic_subgroups`` builds its subgroups through
    ``lattice._trusted`` from integer combinations of the discriminant
    group's lifts, which lie in the dual by construction, so it skips the
    check.  Neither path checks isotropy: ``overlattice_from_glue`` does.
    Both leave the Hermite basis at its class default, None;
    ``_glue_basis`` builds and keeps it.
    """

    base: Lattice
    generators: RatMatrix
    _basis = None  # (H, den), kept by _glue_basis

    def __post_init__(self):
        if not isinstance(self.generators, RatMatrix):
            rows = list(self.generators)  # a wrong width meets the check below
            vars(self)["generators"] = RatMatrix(rows, ncols=None if rows else self.base.rank)
        gens = self.generators
        if gens.ncols != self.base.rank:
            raise BadParameter("generator width does not match base rank")
        if not (gens @ self.base.gram).is_integral():
            raise BadParameter("generator does not lie in the dual lattice")


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
    span(H, e) outside H.  That span is built one coset H + k·e at a time,
    and the candidate is dropped at the first element below e.

    The trivial subgroup comes first, with no generators over 1, and a form
    on which q vanishes at 0 alone has no other.  A candidate c is
    b-orthogonal to e when c's coefficients dot e's b row, read off the
    form's integer b on the generators, vanish mod N.

    |A| ≤ ``cap`` does not bound the output: U(2)^6 has 4096 elements and
    28,767,916 isotropic subgroups.  So the search counts the coset
    elements it builds and refuses with TooLarge past ``GLUE_SEARCH_CAP``.
    """
    if F.order > cap:
        raise TooLarge(f"|A| = {F.order} exceeds the brute-force cap {cap}")
    T = _ElementTable(F.group.invariant_factors, F._exponent, F._q_gen, F._b_gen)
    lift_num, den = F.group.generator_lifts._numerators()
    # the trivial subgroup, first in the output order: no generators, over 1
    no_rows = RatMatrix._trusted(IntMatrix._trusted((), lift_num.ncols), 1)
    trivial = _trusted(GlueSubgroup, base=F.lattice, generators=no_rows)
    if T.q.count(0) == 1:  # q vanishes on 0 alone
        return [trivial]
    isotropic = [e for e, q in enumerate(T.q) if e and q == 0]
    add, N, b_gen = T.add, F._exponent, F._b_gen
    coefficients = {e: T.coefficients(e) for e in isotropic}
    # b(gⱼ, e)·N mod N for each generator gⱼ, b being symmetric: b(c, e)·N is then
    # the dot product of c's coefficients with e's row, mod N
    b_rows = {e: [sum(map(mul, row, c)) % N for row in b_gen] for e, c in coefficients.items()}
    found = []
    built = 0

    def child(H, e):
        # span(H, e) when e is its least element outside H, else None
        nonlocal built
        new, m = [], e
        while m not in H:
            for h in H:
                x = add(h, m)
                if x < e:
                    built += len(new) + 1
                    return None
                new.append(x)
            m = add(m, e)
        built += len(new)
        return H.union(new)

    def grow(H, gens, candidates):
        # candidates: isotropic, beyond gens[-1], outside H, b-orthogonal to H;
        # so span(H, e) is isotropic, as q(h + e) = q(h) + q(e) + 2·b(h, e)
        found.append((H, gens))
        for i, e in enumerate(candidates):
            K = child(H, e)
            if built > GLUE_SEARCH_CAP:
                raise TooLarge(
                    f"the glue search built {built} coset elements, past its cap {GLUE_SEARCH_CAP}, "
                    f"with {len(found)} isotropic subgroups found"
                )
            if K is not None:
                row = b_rows[e]
                later = [c for c in candidates[i + 1 :] if c not in K and sum(map(mul, coefficients[c], row)) % N == 0]
                grow(K, gens + [e], later)

    try:
        grow(frozenset([0]), [], isotropic)
    finally:
        del grow  # the closure holds itself: unbound, it leaves no reference cycle
    found.sort(key=lambda t: (len(t[0]), sorted(t[0])))
    s = len(T.factors)
    rows = [IntMatrix._trusted(tuple(map(coefficients.get, gens)), s) @ lift_num for _, gens in found[1:]]
    return [trivial] + [_trusted(GlueSubgroup, base=F.lattice, generators=RatMatrix._over(num, den)) for num in rows]


def _glue_basis(G: GlueSubgroup) -> tuple[IntMatrix, int]:
    """(H, den): the overlattice M generated by the base and the glue is
    (1/den)·(row span of H), for the generators' integer form num/den and
    H the Hermite form of den·I stacked on num.  H is n×n and upper
    triangular, as its span contains den·ℤⁿ, and each pivot Hᵢᵢ divides den.
    When den = 1 every generator is a lattice vector, the glue is L/L and
    M = L: H is the identity, with no Hermite form.  G keeps it, so it is
    computed once per subgroup."""
    if G._basis is None:
        n = G.base.rank
        num, den = G.generators._numerators()
        if den == 1:
            H = _ident_rows(n)
        else:
            scaled = [[0] * i + [den] + [0] * (n - 1 - i) for i in range(n)] + num.tolist()
            H, _ = _hnf(scaled, n, False)
        vars(G)["_basis"] = (_frozen(H[:n], n), den)
    return G._basis


def subgroup_elements(G: GlueSubgroup) -> frozenset[tuple[Fraction, ...]]:
    """Elements of the glue subgroup as dual vectors reduced mod the base lattice.

    For (H, den) = ``_glue_basis(G)`` they are Σ cᵢ·Hᵢ/den mod 1 for
    0 ≤ cᵢ < den/Hᵢᵢ, each once: for two coefficient tuples that first
    differ at i, the sums differ in coordinate i by (cᵢ − cᵢ′)·Hᵢᵢ/den, as H
    is upper triangular, and 0 < |cᵢ − cᵢ′|·Hᵢᵢ < den makes that no integer.
    """
    H, den = _glue_basis(G)
    elements = [(0,) * H.ncols]
    for i, row in enumerate(H):
        if row[i] < den:  # a row with Hᵢᵢ = den adds no element
            step = range(den // row[i])
            elements = [tuple((x + c * y) % den for x, y in zip(e, row)) for e in elements for c in step]
    return frozenset(tuple(Fraction(x, den) for x in e) for e in elements)


def glue_order(G: GlueSubgroup) -> int:
    """|M/L| = [span H : den·ℤⁿ] = denⁿ / ∏ Hᵢᵢ, for (H, den) = ``_glue_basis(G)``."""
    H, den = _glue_basis(G)
    order, r = divmod(den**H.nrows, prod(row[i] for i, row in enumerate(H)))
    if r:
        raise InvariantViolation("the glue order is not an integer", glue=G, basis=H)
    return order


def overlattice_from_glue(G: GlueSubgroup) -> Lattice:
    """Lattice generated by the base and the glue lifts, with induced Gram.

    Raises NotIsotropic when the result fails to be an even integral
    lattice (which happens exactly when the glue subgroup is not
    isotropic).  Even overlattices of L correspond to isotropic subgroups
    of its discriminant group (Nikulin 1979, §1.4), and the trivial
    subgroup, glue of denominator 1, to L itself: then the result is L,
    with its Gram, det, signature and group, once its diagonal is checked
    even.  Otherwise, for (H, den) = ``_glue_basis(G)``, the Gram is H·G·Hᵀ
    divided by den² exactly, each remainder checked zero.  Its det is
    det L / ``glue_order(G)``², as |M/L|² = det L / det M, and its
    signature is L's, so its Gram needs no elimination.
    """
    base = G.base
    if G.generators.common_denominator() == 1:
        if not is_even(base):
            raise NotIsotropic("glue subgroup is not isotropic: odd vector norm")
        return _relabelled(base, None)
    basis, den = _glue_basis(G)
    dd = den * den
    pairings = _congruence(basis, base.gram)
    if any(p % dd for row in pairings for p in row):
        raise NotIsotropic("glue subgroup is not isotropic: non-integral pairing")
    gram = tuple([tuple([p // dd for p in row]) for row in pairings])
    if any(row[i] % 2 for i, row in enumerate(gram)):
        raise NotIsotropic("glue subgroup is not isotropic: odd vector norm")
    det, r = divmod(base.det, glue_order(G) ** 2)
    if r:
        raise InvariantViolation("the overlattice det is not an integer", glue=G, basis=basis)
    return _trusted(Lattice, gram=IntMatrix._trusted(gram, base.rank), det=det, _signature=base._signature)


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
