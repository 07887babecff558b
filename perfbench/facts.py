"""Independent facts the benchmark checks the program's answers against.

Nothing here imports quadlat: every check recomputes what it needs with
plain integers and ``fractions.Fraction``, from the conventions the
README fixes (E8 in the Bourbaki simple-root basis, direct sums in
argument order, row vectors paired as x·G·yᵀ).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction


class Mismatch(Exception):
    """An answer contradicts an independent fact."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


E8 = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)
E8_NEG = tuple(tuple(-x for x in row) for row in E8)
U = ((0, 1), (1, 0))


def block_diag(*blocks) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = list(row)
        at += len(b)
    return out


def lambda2d_gram(d: int) -> list[list[int]]:
    return block_diag(E8_NEG, E8_NEG, U, U, ((-2 * d,),))


def lambda_sharp_gram() -> list[list[int]]:
    return block_diag(E8_NEG, E8_NEG, E8_NEG, U, U)


def lambda_k3_gram() -> list[list[int]]:
    return block_diag(E8_NEG, E8_NEG, U, U, U)


def scaled_u(n: int) -> tuple[tuple[int, ...], ...]:
    return ((0, n), (n, 0))


def an_gram(n: int) -> list[list[int]]:
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list]:
    """Row by row, skipping zero entries: the checked matrices are sparse."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def transpose(a) -> list[list]:
    return [list(c) for c in zip(*a)]


def gram_of(basis, gram) -> list[list]:
    return matmul(matmul(basis, gram), transpose(basis))


def det(a) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def inertia(gram) -> tuple[int, int]:
    """(positive, negative) counts by symmetric elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in gram]
    plus = minus = 0
    while m:
        n = len(m)
        k = next((i for i in range(n) if m[i][i]), None)
        if k is None:
            off_diagonal = next(((i, j) for i in range(n) for j in range(n) if m[i][j]), None)
            if off_diagonal is None:
                break
            i, j = off_diagonal
            # replace row/column i by the sum of rows i and j: diagonal becomes 2·m[i][j]
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
            continue
        piv = m[k][k]
        if piv > 0:
            plus += 1
        else:
            minus += 1
        rest = [i for i in range(n) if i != k]
        m = [[m[i][j] - m[i][k] * m[k][j] / piv for j in rest] for i in rest]
    return plus, minus


def is_even_integral(gram) -> bool:
    n = len(gram)
    return all(
        Fraction(gram[i][j]).denominator == 1 and gram[i][j] == gram[j][i]
        for i in range(n)
        for j in range(n)
    ) and all(gram[i][i] % 2 == 0 for i in range(n))


def pair(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)) if x[i] and y[j])


def sigma3(m: int) -> int:
    return sum(k**3 for k in range(1, m + 1) if m % k == 0)


def span_mod_one(gens, n: int) -> frozenset:
    """Subgroup of (ℚ/ℤ)ⁿ generated by rational rows, by breadth-first closure."""
    zero = (Fraction(0),) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        e = frontier.pop()
        for g in gens:
            s = tuple((a + b) % 1 for a, b in zip(e, g))
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return frozenset(seen)


def check_glue(gram, subgroups, overlattice_grams) -> None:
    """Every glue subgroup isotropic, all distinct, the trivial one present,
    and every overlattice even, integral and of determinant det(L)/|H|²."""
    n = len(gram)
    det_l = det(gram)
    seen = set()
    expect(len(subgroups) == len(overlattice_grams), "one overlattice per glue subgroup")
    for gens, over in zip(subgroups, overlattice_grams):
        for i, g in enumerate(gens):
            expect(pair(gram, g, g) % 2 == 0, "glue generator has odd or fractional norm")
            for h in gens[i + 1 :]:
                expect(Fraction(pair(gram, g, h)).denominator == 1, "glue generators pair non-integrally")
        elements = span_mod_one(gens, n)
        expect(elements not in seen, "the same glue subgroup is listed twice")
        seen.add(elements)
        expect(is_even_integral(over), "overlattice is not even and integral")
        expect(det(over) * len(elements) ** 2 == det_l, "overlattice determinant is not det(L)/|H|^2")
    expect(frozenset([(Fraction(0),) * n]) in seen, "the trivial glue subgroup is missing")


def cyclic_q_histogram(k: int) -> Counter:
    """q over the discriminant group of gen(k), k even: q(c/k) = c²/k mod 2."""
    return Counter(Fraction(c * c, k) % 2 for c in range(abs(k)))


def hyperbolic_q_histogram(n: int) -> Counter:
    """q over the discriminant group of U(n): q(a·e/n + b·f/n) = 2ab/n mod 2."""
    return Counter(Fraction(2 * a * b, n) % 2 for a in range(n) for b in range(n))


def sum_histogram(*parts: Counter) -> Counter:
    """q-value distribution of an orthogonal sum (values add mod 2)."""
    out = Counter({Fraction(0): 1})
    for part in parts:
        nxt: Counter = Counter()
        for x, m in out.items():
            for y, k in part.items():
                nxt[(x + y) % 2] += m * k
        out = nxt
    return out


def _q_value(c, q_values, b_values) -> Fraction:
    total = Fraction(0)
    for i, ci in enumerate(c):
        if ci:
            total += ci * ci * q_values[i]
            for j in range(i + 1, len(c)):
                total += 2 * ci * c[j] * b_values[i][j]
    return total % 2


def q_histogram_from_form(factors, q_values, b_values) -> Counter:
    """q over the whole group, from generator values and the bilinear matrix."""
    return Counter(
        _q_value(c, q_values, b_values) for c in itertools.product(*(range(f) for f in factors))
    )


def isotropic_subgroup_count(factors, q_values, b_values) -> int:
    """Isotropic subgroups of a finite quadratic form, by closing every set
    of isotropic elements (the brute force the glue oracle in the tests uses)."""
    s = len(factors)

    def isotropic(c):
        return _q_value(c, q_values, b_values) == 0

    iso = [c for c in itertools.product(*(range(f) for f in factors)) if isotropic(c)]

    def close(gens):
        zero = (0,) * s
        out = {zero}
        frontier = [zero]
        while frontier:
            e = frontier.pop()
            for g in gens:
                t = tuple((a + b) % f for a, b, f in zip(e, g, factors))
                if t not in out:
                    out.add(t)
                    frontier.append(t)
        return frozenset(out)

    found = {close([])}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for e in iso:
            if e not in h:
                k = close(list(h) + [e])
                if k not in found and all(isotropic(x) for x in k):
                    found.add(k)
                    frontier.append(k)
    return len(found)


def fixed_dimension_brute(ell: int, generators) -> int:
    """dim of {x ∈ F_ell^n : x·g = x for every g}, by scanning F_ell^n."""
    n = len(generators[0])
    fixed = 0
    for x in itertools.product(range(ell), repeat=n):
        if all(
            all(sum(x[i] * g[i][j] for i in range(n)) % ell == x[j] for j in range(n))
            for g in generators
        ):
            fixed += 1
    dim = 0
    while ell**dim < fixed:
        dim += 1
    expect(ell**dim == fixed, "fixed set is not a subspace")
    return dim


def reduced_even_binary_forms(det_value: int) -> set:
    """Reduced [[2a, b], [b, 2c]] with 0 ≤ b ≤ a ≤ c and 4ac − b² = det, by
    scanning every a, b, c up to det."""
    out = set()
    for a in range(1, det_value + 1):
        for b in range(0, a + 1):
            for c in range(a, det_value + 1):
                if 4 * a * c - b * b == det_value:
                    out.add(((2 * a, b), (b, 2 * c)))
    return out
