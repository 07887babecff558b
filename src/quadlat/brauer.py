"""Finite computations behind the Brauer-group boundedness argument.

Covers the structure of the cohomology-mod-algebraic-classes quotient,
the torsion orders coming from the Kummer sequence, fixed subspaces of
matrix groups mod a prime, the universal order bound for finite groups
of integer matrices, and the point-count sandwich for connected
algebraic groups over a prime field.

The package's one mod-p elimination, ``linalg._echelon_mod``, serves the
invertibility check of generators, the fixed subspace and the linear
conditions of the point counts.  A point count searches the columns of
g one at a time and never forms a matrix product or a determinant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul

from .errors import BadParameter, NotInvertible, NotSaturated, TooLarge
from .embeddings import SublatticeEmbedding, is_primitive
from .lattice import Lattice, _check_rank
from .linalg import IntMatrix, _echelon_mod, _smith

#: Guard for brute_force_points: ell**(n*n) must not exceed this.  Its
#: column search tries fewer than 2·ell**(n*n) candidate columns.
POINTS_SCAN_CAP = 10**8

#: ψ₁₃, the least strong pseudoprime to every prime base up to 41
#: (Sorenson and Webster 2015): Miller–Rabin with those bases decides
#: primality exactly below it, and larger ell are refused.
PRIME_TEST_BOUND = 3317044064679887385961981

_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))
_MR_BASES = _SMALL_PRIMES[:13]  # 2, 3, 5, ..., 41


def _check_prime(ell: int) -> None:
    """Raise BadParameter unless ell is prime: trial division by the
    primes below 1000, then deterministic Miller–Rabin.  An ell with no
    factor below 1000 is refused with TooLarge from PRIME_TEST_BOUND on."""
    if ell < 2 or any(ell % p == 0 for p in _SMALL_PRIMES if p < ell):
        raise BadParameter(f"{ell} is not prime")
    if ell < 1000**2:
        return
    if ell >= PRIME_TEST_BOUND:
        raise TooLarge(f"ell is not below the primality-test bound {PRIME_TEST_BOUND}")
    odd, twos = ell - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _MR_BASES:
        x = pow(a, odd, ell)
        if x == 1:
            continue
        for _ in range(twos):
            if x == ell - 1:
                break
            x = x * x % ell
        else:
            raise BadParameter(f"{ell} is not prime")


def _power_exceeds(base: int, exp: int, cap: int) -> bool:
    """Whether base**exp > cap, for base ≥ 2, without building the power:
    the product passes cap after at most log₂(cap) + 1 factors."""
    value = 1
    for _ in range(exp):
        value *= base
        if value > cap:
            return True
    return False


@dataclass(frozen=True)
class CohomologyPair:
    """Rank-b2 lattice together with the image of the algebraic classes."""

    H: Lattice
    ns: SublatticeEmbedding

    def __post_init__(self):
        if self.ns.ambient.gram != self.H.gram:
            raise BadParameter("algebraic part must embed into H")

    @property
    def b2(self) -> int:
        return self.H.rank

    @property
    def rho(self) -> int:
        return self.ns.rank


def quotient_structure(P: CohomologyPair) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors) of H modulo the algebraic span.

    Torsion is nontrivial exactly when the algebraic part is not
    saturated.
    """
    free = P.b2 - P.rho
    _, S, _ = _smith(P.ns.basis, False, False)
    torsion = tuple(S[i][i] for i in range(P.rho) if S[i][i] > 1)
    return free, torsion


def brauer_torsion_order(P: CohomologyPair, ell: int, n: int) -> int:
    """Order of the ell^n-torsion of the divisible Brauer part: ell^(n·(b2-rho)).

    The Kummer sequence identifies that torsion with H/(N + ell^n·H) for
    saturated N, which is what the formula computes.
    """
    _check_prime(ell)
    if n < 1:
        raise BadParameter("torsion level n must be >= 1")
    if not is_primitive(P.ns):
        raise NotSaturated("algebraic part must be saturated (torsion-free quotient)")
    return ell ** (n * (P.b2 - P.rho))


@dataclass(frozen=True)
class FiniteMatrixGroupModL:
    """Generating matrices of a subgroup of GL(dim) over the field with ell elements."""

    ell: int
    dim: int
    generators: tuple[IntMatrix, ...]

    def __post_init__(self):
        _check_prime(self.ell)
        if self.dim < 0:
            raise BadParameter("dim must be >= 0")
        _check_rank(self.dim)
        reduced = []
        for g in self.generators:
            if not isinstance(g, IntMatrix):
                g = IntMatrix(g, ncols=self.dim)
            if g.nrows != self.dim or g.ncols != self.dim:
                raise BadParameter("generator size does not match dim")
            rows = tuple(tuple(x % self.ell for x in row) for row in g)
            if len(_echelon_mod(rows, self.ell, self.dim)[1]) < self.dim:
                raise NotInvertible("generator is singular mod ell")
            reduced.append(IntMatrix._trusted(rows, self.dim))
        vars(self)["generators"] = tuple(reduced)


def fixed_subspace_mod_ell(S: FiniteMatrixGroupModL) -> tuple[int, IntMatrix]:
    """Dimension and row basis of the simultaneous fixed space mod ell.

    Solves x·(g - id) = 0 over the prime field for every generator at
    once: one basis vector per free column of the echelon form of the
    stacked columns of the g - id, by back substitution.
    """
    p, n = S.ell, S.dim
    cols = [[g[i][j] - (1 if i == j else 0) for i in range(n)] for g in S.generators for j in range(n)]
    basis = _null_basis(*_echelon_mod(cols, p, n), n, p)
    return len(basis), IntMatrix(basis, ncols=n)


def _null_basis(echelon, pivots, ncols: int, p: int) -> list[list[int]]:
    """The kernel mod p of the echelon rows: one vector for each free
    column, 1 there and 0 at the other free columns, its pivot
    coordinates found by back substitution."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(reversed(echelon), reversed(pivots)):
            vec[pc] = -sum(x * y for x, y in zip(row[pc + 1 :], vec[pc + 1 :])) % p
        basis.append(vec)
    return basis


def minkowski_bound(n: int) -> int:
    """Universal bound M(n) for orders of finite subgroups of GL_n(ℤ).

    Classical product formula (not stated in the source material for the
    finiteness it effectivizes):
        M(n) = prod_p p^(sum_{k>=0} floor(n / (p^k (p-1)))).
    Only primes p <= n + 1 contribute.  n is a rank, so n above RANK_CAP
    is refused.
    """
    if n < 1:
        raise BadParameter("n must be >= 1")
    _check_rank(n)
    result = 1
    for p in (q for q in _SMALL_PRIMES if q <= n + 1):  # n + 1 <= 1001, which is composite
        exp = 0
        pk = 1
        while True:
            term = n // (pk * (p - 1))
            if term == 0:
                break
            exp += term
            pk *= p
        result *= p**exp
    return result


def nori_sandwich_check(count: int, dim: int, ell: int) -> bool:
    """(ell-1)^dim <= count <= (ell+1)^dim, the point-count bounds for a
    connected algebraic group over the prime field."""
    _check_prime(ell)
    if dim < 0:
        raise BadParameter("dim must be >= 0")
    return (ell - 1) ** dim <= count <= (ell + 1) ** dim


def brute_force_points(
    group: str,
    n: int,
    ell: int,
    of: Lattice | None = None,
    cap: int = POINTS_SCAN_CAP,
) -> int:
    """Exact point count of a classical group over the prime field, by a
    search over the columns of g.

    group: "special_linear" (det = 1), "symplectic" (gᵀ·J·g = J, n even)
    or "orthogonal" (gᵀ·Q·g = Q for the Gram Q of ``of`` reduced mod ell).
    Only invertible g count: the count is of {g ∈ GL_n(𝔽_ell) : gᵀ·F·g = F}.
    When F is non-degenerate mod ell, as J is, gᵀ·F·g = F forces det g ≠ 0;
    when ell divides det F, singular g (the zero matrix, for one) satisfy
    it too and are not group elements.

    The search picks the columns c_0, c_1, ... of g in order and keeps a
    column only while the columns picked stay independent mod ell.  For
    Sp and O, gᵀ·F·g = F is c_iᵀ·F·c_k ≡ F_ik for i ≤ k (F is symmetric or
    alternating, so the pairs i > k follow): the conditions against the
    columns already picked are linear in c_k, and only their affine
    solution set is walked, each point then tested against the diagonal
    condition c_kᵀ·F·c_k ≡ F_kk.  For SL, once c_0 ... c_{n-2} are picked,
    det g ≡ 1 is one affine equation in the last column, whose points are
    counted, not walked.  Candidates are generated lazily: nothing of size
    ell^n is built.  The tests check it against the closed-form group
    orders and against a plain scan of all ell^(n²) matrices.
    """
    if ell < 2:
        raise BadParameter(f"{ell} is not prime")
    if n < 1:
        raise BadParameter("matrix size must be >= 1")
    if _power_exceeds(ell, n * n, cap):
        raise TooLarge(f"{ell}^{n*n} exceeds the scan cap {cap}")
    _check_prime(ell)
    if group == "special_linear":
        return _special_linear_count(n, ell, [])
    if group == "symplectic":
        if n % 2:
            raise BadParameter("symplectic groups need even size")
        h = n // 2
        form = [[(1 if j == i + h else 0) if i < h else (-1 if j == i - h else 0) for j in range(n)] for i in range(n)]
    elif group == "orthogonal":
        if of is None:
            raise BadParameter("orthogonal counting needs a lattice")
        if of.rank != n:
            raise BadParameter("lattice rank does not match matrix size")
        form = of.gram
    else:
        raise BadParameter(f"unknown group kind {group!r}")
    form = [[x % ell for x in row] for row in form]
    return _isometry_count(form, list(zip(*form)), ell, [], [])


def _vectors(ell: int, n: int):
    """All of 𝔽_ell^n as tuples, lazily.  itertools.product would first
    store range(ell) as ell ints, and for n = 1 ell may be near 10^8."""
    if n == 0:
        yield ()
        return
    for prefix in itertools.product(range(ell), repeat=n - 1):
        for v in range(ell):
            yield prefix + (v,)


def _new_echelon_row(x, basis: list[tuple[int, list[int]]], ell: int) -> tuple[int, list[int]] | None:
    """The (pivot, row) that x adds to the echelon rows of basis, each 1 at
    its pivot and 0 at the pivots before it: x reduced against them and
    scaled to a leading 1.  None when x lies in their span mod ell."""
    for pc, row in basis:
        f = x[pc]
        if f:
            x = [(a - f * b) % ell for a, b in zip(x, row)]
    for lead, a in enumerate(x):
        if a:
            inv = pow(a, -1, ell)
            return lead, [b * inv % ell for b in x]
    return None


def _special_linear_count(n: int, ell: int, basis: list) -> int:
    # the g in SL_n whose first columns are picked, independent with echelon rows basis
    if len(basis) == n - 1:
        # det(c_0, ..., c_{n-2}, x) vanishes on the span S of the picked
        # columns and is a nonzero linear form: with e a unit vector at a
        # non-pivot of basis, x = s + t·e (s in S) has det = t·det(..., e),
        # so det ≡ 1 fixes t and leaves s free, |S| = ell^(n-1) points
        return ell ** len(basis)
    total = 0
    for x in _vectors(ell, n):
        row = _new_echelon_row(x, basis, ell)
        if row is not None:
            total += _special_linear_count(n, ell, basis + [row])
    return total


def _affine_points(echelon, pivots, n: int, ell: int):
    """The x in 𝔽_ell^n with row[:n]·x ≡ row[n] for every row of a
    consistent echelon system, lazily: one solution plus each combination
    of the kernel vectors of the free columns."""
    if not pivots:  # no condition: all of 𝔽_ell^n, without a list per combination
        yield from _vectors(ell, n)
        return
    *kernel, last = _null_basis(echelon, pivots, n + 1, ell)
    # last is 1 at the constant column, the last free one: -last solves the system
    base = [-a % ell for a in last[:n]]
    for values in _vectors(ell, len(kernel)):
        x = base
        for v, vec in zip(values, kernel):
            if v:
                x = [(a + v * b) % ell for a, b in zip(x, vec)]
        yield x


def _isometry_count(form: list[list[int]], cols: list, ell: int, rows: list[list[int]], basis: list) -> int:
    # the g with gᵀ·F·g = F (F = form, reduced mod ell, with columns cols)
    # whose first k = len(rows) columns c_i are picked, independent with
    # echelon rows basis; rows holds the c_iᵀ·F
    n, k = len(form), len(rows)
    # c_iᵀ·F·x ≡ F_ik, with F_ik as the last column of the system
    echelon, pivots = _echelon_mod([row + [form[i][k]] for i, row in enumerate(rows)], ell, n + 1)
    if pivots and pivots[-1] == n:
        return 0  # 0 ≡ 1: no column extends the ones picked
    total = 0
    for x in _affine_points(echelon, pivots, n, ell):
        row = [sum(map(mul, x, col)) % ell for col in cols]
        if sum(map(mul, row, x)) % ell != form[k][k]:
            continue
        pivot_row = _new_echelon_row(x, basis, ell)
        if pivot_row is not None:
            total += 1 if k == n - 1 else _isometry_count(form, cols, ell, rows + [row], basis + [pivot_row])
    return total
