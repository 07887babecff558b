"""Finite computations behind the Brauer-group boundedness argument.

Covers the structure of the cohomology-mod-algebraic-classes quotient,
the torsion orders coming from the Kummer sequence, fixed subspaces of
matrix groups mod a prime, the universal order bound for finite groups
of integer matrices, and the point-count sandwich for connected
algebraic groups over a prime field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BadParameter, NotInvertible, NotSaturated, TooLarge
from .embeddings import SublatticeEmbedding, is_primitive
from .lattice import Lattice, _check_rank
from .linalg import IntMatrix, smith_normal_form

#: Exhaustive-scan guard for brute_force_points: ell**(n*n) must not exceed this.
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
    if P.rho == 0:
        return free, ()
    _, S, _ = smith_normal_form(P.ns.basis)
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
        gens = tuple(
            g if isinstance(g, IntMatrix) else IntMatrix(g, ncols=self.dim)
            for g in self.generators
        )
        reduced = []
        for g in gens:
            if g.nrows != self.dim or g.ncols != self.dim:
                raise BadParameter("generator size does not match dim")
            rg = IntMatrix([[x % self.ell for x in row] for row in g], ncols=self.dim)
            if _det_mod(rg, self.ell) == 0:
                raise NotInvertible("generator is singular mod ell")
            reduced.append(rg)
        object.__setattr__(self, "generators", tuple(reduced))


def _det_mod(m: IntMatrix, p: int) -> int:
    n = m.nrows
    a = [[x % p for x in row] for row in m]
    det = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        inv = pow(a[col][col], p - 2, p)
        det = det * a[col][col] % p
        for i in range(col + 1, n):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[col])]
    return det % p


def fixed_subspace_mod_ell(S: FiniteMatrixGroupModL) -> tuple[int, IntMatrix]:
    """Dimension and row basis of the simultaneous fixed space mod ell.

    Solves x·(g - id) = 0 over the prime field for every generator at
    once.
    """
    p, n = S.ell, S.dim
    if not S.generators:
        return n, IntMatrix.identity(n)
    # columns of all (g - id), stacked horizontally
    cols: list[list[int]] = []
    for g in S.generators:
        for j in range(n):
            cols.append([(g[i][j] - (1 if i == j else 0)) % p for i in range(n)])
    # row-reduce the transpose: solutions of x·W = 0
    mat = [list(c) for c in cols]
    pivots: list[int] = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [x * inv % p for x in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-mat[r][fc]) % p
        basis.append(vec)
    return len(free), IntMatrix(basis, ncols=n)


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
    for p in range(2, n + 2):
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
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


def _mat_mul_mod(a, b, n, p):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def brute_force_points(
    group: str,
    n: int,
    ell: int,
    of: Lattice | None = None,
    cap: int = POINTS_SCAN_CAP,
) -> int:
    """Exact point count of a classical group over the prime field by
    exhaustive scan of all ell^(n²) matrices.

    group: "special_linear" (det = 1), "symplectic" (gᵀ·J·g = J, n even)
    or "orthogonal" (gᵀ·Q·g = Q for the Gram Q of ``of`` reduced mod ell).
    Deliberately naive: this is the oracle the sandwich bounds are tested
    against.
    """
    if ell < 2:
        raise BadParameter(f"{ell} is not prime")
    if n < 1:
        raise BadParameter("matrix size must be >= 1")
    if _power_exceeds(ell, n * n, cap):
        raise TooLarge(f"{ell}^{n*n} exceeds the scan cap {cap}")
    _check_prime(ell)
    if group == "special_linear":
        form = None
    elif group == "symplectic":
        if n % 2:
            raise BadParameter("symplectic groups need even size")
        h = n // 2
        form = tuple(
            tuple(
                (1 if (i < h and j == i + h) else -1 if (i >= h and j == i - h) else 0) % ell
                for j in range(n)
            )
            for i in range(n)
        )
    elif group == "orthogonal":
        if of is None:
            raise BadParameter("orthogonal counting needs a lattice")
        if of.rank != n:
            raise BadParameter("lattice rank does not match matrix size")
        form = tuple(tuple(x % ell for x in row) for row in of.gram)
    else:
        raise BadParameter(f"unknown group kind {group!r}")

    count = 0
    for entries in itertools.product(range(ell), repeat=n * n):
        g = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if form is None:
            if _det_mod(IntMatrix(g, ncols=n), ell) == 1:
                count += 1
        else:
            gt = tuple(tuple(g[i][j] for i in range(n)) for j in range(n))
            if _mat_mul_mod(_mat_mul_mod(gt, form, n, ell), g, n, ell) == form:
                count += 1
    return count
