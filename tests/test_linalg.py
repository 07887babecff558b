import random
from fractions import Fraction

import pytest

from quadlat.errors import NonSquare, SingularMatrix
from quadlat.linalg import (
    IntMatrix,
    RatMatrix,
    det_exact,
    hermite_normal_form,
    invert_rational,
    kernel_basis,
    smith_normal_form,
    solve_rational,
)


def cofactor_det(rows):
    """Independent determinant oracle: brute-force cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


E8_ROWS = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]


def random_matrix(rng, max_dim=5, bound=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)])


def assert_snf_contract(m):
    U, S, V = smith_normal_form(m)
    assert U @ m @ V == S
    assert abs(det_exact(U)) == 1
    assert abs(det_exact(V)) == 1
    diag = [S[i][i] for i in range(min(m.nrows, m.ncols))]
    for i in range(m.nrows):
        for j in range(m.ncols):
            if i != j:
                assert S[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return S


class TestSmithNormalForm:
    def test_already_diagonal(self):
        S = assert_snf_contract(IntMatrix([[2, 0], [0, 4]]))
        assert S.tolist() == [[2, 0], [0, 4]]

    def test_gcd_drives_first_factor(self):
        # hand computation: gcd(2, 3) = 1 and the product is preserved
        S = assert_snf_contract(IntMatrix([[2, 0], [0, 3]]))
        assert S.tolist() == [[1, 0], [0, 6]]

    def test_zero_matrix(self):
        S = assert_snf_contract(IntMatrix([[0]]))
        assert S.tolist() == [[0]]

    def test_random_structural_identities(self):
        rng = random.Random(1201)
        for _ in range(250):
            m = random_matrix(rng)
            S = assert_snf_contract(m)
            if m.nrows == m.ncols:
                prod = 1
                for i in range(m.nrows):
                    prod *= S[i][i]
                assert abs(det_exact(m)) == prod


class TestHermiteNormalForm:
    def test_identity_fixed(self):
        H, T = hermite_normal_form(IntMatrix.identity(3))
        assert H == IntMatrix.identity(3)
        assert T == IntMatrix.identity(3)

    def test_already_hnf(self):
        H, _ = hermite_normal_form(IntMatrix([[2, 0], [0, 2]]))
        assert H.tolist() == [[2, 0], [0, 2]]

    def test_hand_row_reduction(self):
        # row lattice of [[2,4],[1,3]]; after the normalization (pivots
        # positive, entries above reduced into [0, pivot)) the unique
        # form is [[1,1],[0,2]]
        m = IntMatrix([[2, 4], [1, 3]])
        H, T = hermite_normal_form(m)
        assert T @ m == H
        assert abs(det_exact(T)) == 1
        assert H.tolist() == [[1, 1], [0, 2]]

    def test_random_contract_and_idempotence(self):
        rng = random.Random(22)
        for _ in range(250):
            m = random_matrix(rng)
            H, T = hermite_normal_form(m)
            assert T @ m == H
            assert abs(det_exact(T)) == 1
            H2, _ = hermite_normal_form(H)
            assert H2 == H
            # normalization: positive pivots, entries above in [0, pivot)
            for i in range(H.nrows):
                row = H[i]
                piv = next((j for j in range(H.ncols) if row[j]), None)
                if piv is None:
                    continue
                assert row[piv] > 0
                for k in range(i):
                    assert 0 <= H[k][piv] < row[piv]


class TestDeterminant:
    def test_identity(self):
        assert det_exact(IntMatrix.identity(3)) == 1

    def test_hyperbolic_gram(self):
        assert det_exact(IntMatrix([[0, 1], [1, 0]])) == -1

    def test_e8_against_cofactor_oracle(self):
        assert cofactor_det(E8_ROWS) == 1
        assert det_exact(IntMatrix(E8_ROWS)) == 1

    def test_random_against_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert det_exact(IntMatrix(rows)) == cofactor_det(rows)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            det_exact(IntMatrix([[1, 2]]))
        assert not IntMatrix([[1, 2, 3], [2, 5, 6]]).is_symmetric()


class TestSum:
    def test_entrywise_and_int_only(self):
        rng = random.Random(17)
        for _ in range(40):
            a = random_matrix(rng)
            b = IntMatrix([[rng.randint(-9, 9) for _ in range(a.ncols)] for _ in range(a.nrows)])
            assert (a + b).tolist() == [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
            assert (a - b) + b == a
        with pytest.raises(ValueError):
            IntMatrix([[1, 2]]) + IntMatrix([[1], [2]])
        with pytest.raises(TypeError):  # a sum with Fraction entries is no IntMatrix
            IntMatrix([[1, 2]]) + RatMatrix([[1, 2]])


class TestConstructorAndOperandChecks:
    @pytest.mark.parametrize("cls", [IntMatrix, RatMatrix])
    def test_ragged_rows_rejected(self, cls):
        with pytest.raises(ValueError, match="ragged"):
            cls([[1, 2], [3]])

    @pytest.mark.parametrize("cls", [IntMatrix, RatMatrix])
    def test_no_rows_needs_an_explicit_width(self, cls):
        with pytest.raises(ValueError, match="empty matrix needs an explicit ncols"):
            cls([])
        assert cls([], ncols=3).ncols == 3

    @pytest.mark.parametrize(
        "top, bottom",
        [
            ([[1, -2]], [[3, 4], [0, 5]]),  # integral rationals
            ([[1, -2]], [[Fraction(1, 2), 4], [0, Fraction(-5, 3)]]),
            ([[0, 0]], [[Fraction(7, 6), 1]]),
        ],
    )
    def test_mixed_stacks_are_rational(self, top, bottom):
        # IntMatrix.stack of a RatMatrix stacks rationally, as RatMatrix.stack of an IntMatrix does
        a, r = IntMatrix(top), RatMatrix(bottom)
        assert a.stack(r) == a.to_rat().stack(r) == RatMatrix(top + bottom)
        assert r.stack(a) == r.stack(a.to_rat()) == RatMatrix(bottom + top)
        with pytest.raises(ValueError, match="shape mismatch"):
            a.stack(RatMatrix([[1]]))

    @pytest.mark.parametrize("product", [lambda m: m @ 3, lambda m: 3 @ m], ids=["right", "left"])
    def test_product_with_a_scalar_is_a_type_error(self, product):
        with pytest.raises(TypeError):
            product(RatMatrix([[1, 2]]))


def dense_product(a, b, ncols):
    """Independent product oracle: the plain dot product of row i of a and column j of b."""
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(ncols)] for i in range(len(a))]


def sparse_matrix(rng, nrows, ncols, bound=9):
    # mostly zeros, like the block-sparse Grams and bases of the package
    return IntMatrix([[rng.choice([0, 0, 0, rng.randint(-bound, bound)]) for _ in range(ncols)] for _ in range(nrows)],
                     ncols=ncols)


class TestReusedRightOperand:
    def test_products_match_dense_reference(self):
        rng = random.Random(14)

        def check(m):
            for _ in range(3):
                a = sparse_matrix(rng, rng.randint(0, 4), m.nrows)
                product = a @ m
                assert product.tolist() == dense_product(a, m, m.ncols) and product.ncols == m.ncols

        for _ in range(150):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            b = sparse_matrix(rng, r, c)
            # b is the right operand of several products, then each matrix derived from it
            check(b)
            for m in (b.transpose(), b.stack(sparse_matrix(rng, rng.randint(0, 3), c)), b.scale(-3), -b, b):
                check(m)

    def test_sparse_rows_built_once(self):
        b = IntMatrix([[0, 2, 0], [1, 0, -1]])
        assert b._sparse is None
        IntMatrix([[1, 1]]) @ b
        rows = b._sparse
        assert rows == [[(1, 2)], [(0, 1), (2, -1)]]
        IntMatrix([[3, 0]]) @ b
        assert b._sparse is rows
        t = b.transpose()
        assert t._sparse is None and (IntMatrix.identity(3) @ t) == t
        assert t._sparse == [[(1, 1)], [(0, 2)], [(1, -1)]]


class TestKernelBasis:
    def test_trivial_kernel(self):
        # full row rank: the empty basis of ℤ^r, also for r = 0
        assert kernel_basis(IntMatrix.identity(4)) == IntMatrix([], ncols=4)
        assert kernel_basis(IntMatrix([[2, 3, 5], [1, 1, 1]])) == IntMatrix([], ncols=2)
        assert kernel_basis(IntMatrix([], ncols=3)) == IntMatrix([], ncols=0)

    def test_hnf_with_a_pivot_in_every_row(self):
        # every row holds a pivot before the last column is reached
        H, T = hermite_normal_form(IntMatrix([[2, 3, 5], [1, 1, 1]]))
        assert H.tolist() == [[1, 0, -2], [0, 1, 3]] and T.tolist() == [[-1, 3], [1, -2]]
        assert hermite_normal_form(IntMatrix([], ncols=3)) == (IntMatrix([], ncols=3), IntMatrix([], ncols=0))

    def test_symmetric_line(self):
        assert kernel_basis(IntMatrix([[1], [1]])).tolist() == [[1, -1]]

    def test_saturated_even_with_imprimitive_input(self):
        # x·(2,4)ᵀ = 0 has primitive solution (2,-1), not (4,-2)
        assert kernel_basis(IntMatrix([[2], [4]])).tolist() == [[2, -1]]

    def test_random_kernel_properties(self):
        rng = random.Random(33)
        zero_seen = 0
        for _ in range(200):
            m = random_matrix(rng, max_dim=5, bound=4)
            ker = kernel_basis(m)
            if ker.nrows:
                zero_seen += 1
                assert all(all(x == 0 for x in row) for row in ker @ m)
                # primitivity: all invariant factors of the basis are 1
                _, S, _ = smith_normal_form(ker)
                assert all(S[i][i] == 1 for i in range(ker.nrows))
        assert zero_seen > 10  # sanity: the sample actually exercised kernels


class TestSolveRational:
    def test_identity_passthrough(self):
        b = RatMatrix([[Fraction(1, 3)], [Fraction(-2, 7)]])
        assert solve_rational(IntMatrix.identity(2), b) == b

    def test_scalar(self):
        x = solve_rational(IntMatrix([[2]]), RatMatrix([[1]]))
        assert x[0][0] == Fraction(1, 2)

    def test_hyperbolic_swap(self):
        u = IntMatrix([[0, 1], [1, 0]])
        x = solve_rational(u, RatMatrix([[1], [0]]))
        assert x.tolist() == [[Fraction(0)], [Fraction(1)]]

    def test_random_consistency(self):
        rng = random.Random(5)
        done = 0
        while done < 60:
            n = rng.randint(1, 5)
            m = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            if det_exact(m) == 0:
                continue
            b = RatMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))] for _ in range(n)])
            x = solve_rational(m, b)
            assert m.to_rat() @ x == b
            done += 1

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            solve_rational(IntMatrix([[1, 2], [2, 4]]), RatMatrix([[1], [1]]))

    def test_wrong_height_rejected(self):
        with pytest.raises(ValueError, match="number of rows"):
            solve_rational(IntMatrix.identity(2), RatMatrix([[1], [2], [3]]))

    def test_inverse(self):
        m = IntMatrix([[2, 1], [1, 1]])
        assert m.to_rat() @ invert_rational(m) == RatMatrix.identity(2)
