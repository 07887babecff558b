"""Differential tests of the integer-only kernels against independent oracles.

sympy (test-only) checks ``solve_rational`` and ``IntMatrix.__matmul__``
on dense and block-sparse matrices up to rank 28 with large entries, and
the Smith and Hermite normal forms on matrices up to 8×8, rank-deficient
ones included; a work test checks that those forms call their row and
column steps only for a nonzero entry and multiplier, with and without
their transforms.  The cores behind them, run with only the transforms a
caller reads, must return the public forms (the S-only Smith form on
non-square unit-row matrices too), and
``_congruence`` must equal two products B·G·Bᵀ, also on bases of rows
with one nonzero entry.  It also checks the kernels built on the one Bareiss step:
``solve_rational`` (zero leading pivots, the k3 extension system, 0×0 and
zero right-hand sides) and the det of the symmetric elimination, with the
work those eliminations skip: rows that wait under an older pivot (dense
and sparse systems, swapped rows, a congruence that mixes a waiting row,
permuted block-diagonal Grams; the pivot rows against a textbook Bareiss
that rescales every row at every step), unit rows solved outright, Smith
column steps on a clean pivot column and the echelon-only first Hermite
pass of ``kernel_basis``, whose zero rows split off before either pass
(against
the unsplit passes and a sympy rank and Smith oracle);
``TestCarriedSparseRows`` checks the sparse rows that Lambda2d, iota2d and
``kernel_basis`` carry from construction against a scan of their entries,
and ``TestComplementFromItsSource`` the det and signature a complement
reads off the sublattice it complements against the elimination of its
Gram (degenerate ones, sources of high rank and non-unimodular ambients
too);
``TestEliminationWork`` counts the rescales of An(200) and of a
block-diagonal Gram, and the Bareiss rows of the k3 extension system,
``TestFractionsOnRead`` the ``Fraction``s that ``linalg``,
``lattice`` and ``glue`` build before a value is read (none), and
``TestNoReferenceCycles`` the garbage the recursive searches and the k3
complements leave (none).  The
remaining kernels are checked against the formulas they replaced: the
discriminant-group lifts against V^{-1}·G^{-1}, the
det and signature a Lattice carries against ``det_exact`` and the
``Fraction`` congruence reduction kept below, and ``saturate`` against
the first rows of V^{-1} from the Smith form.  The finite
quadratic module core (integer q/b numerators, the element table,
form isomorphism, glue element sets and orders) is checked against
pairings of dual vectors and exhaustive scans, and the prime-by-prime
form isomorphism against the whole-group search it replaced, which
evaluates q and b on its own.  The integer paths for dual
vectors (numerators over one denominator, the one pair a ``RatMatrix``
stores) are checked against the ``Fraction``
products they replaced, and the glue path's trusted forms,
subgroups and overlattices against the public constructors that check.  The mod-ell elimination behind
``brauer`` (``linalg._echelon_mod``) is checked against sympy over GF(p):
fixed spaces against the nullspace, invertibility against the
determinant; the point scans against the closed-form orders of SL_n,
Sp_2m and O(U) over a prime field.
"""

import gc
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy import GF, QQ, ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf  # noqa: E402
from sympy.matrices.normalforms import smith_normal_decomp  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import quadlat.embeddings  # noqa: E402
import quadlat.glue  # noqa: E402
import quadlat.lattice  # noqa: E402
from quadlat import linalg  # noqa: E402

from quadlat.brauer import FiniteMatrixGroupModL, brute_force_points, fixed_subspace_mod_ell  # noqa: E402

from quadlat.embeddings import (  # noqa: E402
    SublatticeEmbedding,
    _norm_vectors,
    _udu,
    as_lattice,
    build_iota2d,
    count_norm_vectors,
    extend_isometry,
    in_tilde_O,
    induced_gram,
    is_isometry,
    is_primitive,
    nikulin_check,
    orthogonal_complement,
    saturate,
)
from quadlat.errors import (  # noqa: E402
    BadParameter,
    Degenerate,
    InvariantViolation,
    NonSquare,
    NotInvertible,
    SingularMatrix,
)
from quadlat.expr import evaluate_expr  # noqa: E402
from quadlat.glue import (  # noqa: E402
    GlueSubgroup,
    glue_order,
    isotropic_subgroups,
    overlattice_from_glue,
    subgroup_elements,
)
from quadlat.lattice import (  # noqa: E402
    DiscriminantForm,
    DiscriminantGroup,
    Signature,
    _ElementTable,
    direct_sum,
    disc_form_isomorphic,
    discriminant_form,
    discriminant_group,
    make_lattice,
    pair,
    signature,
    standard,
)
from quadlat.linalg import (  # noqa: E402
    IntMatrix,
    RatMatrix,
    _det_and_inertia,
    block_diag,
    det_exact,
    hermite_normal_form,
    invert_rational,
    kernel_basis,
    smith_normal_form,
    solve_rational,
)

from sample_lattices import pool_lattices, random_even_lattice  # noqa: E402

ORACLE = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
BIG = 10**12


def _square_block(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def dense_or_block_sparse(draw, max_rank=28, entries=st.integers(-BIG, BIG)):
    """A square integer matrix: dense, or block-diagonal with dense blocks."""
    n = draw(st.integers(1, max_rank))
    if draw(st.booleans()):
        return IntMatrix(draw(_square_block(n, entries)))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(4, n - sum(sizes)))))
    return block_diag(*(IntMatrix(draw(_square_block(k, entries))) for k in sizes))


def _sympy_fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def _to_domain(m, domain) -> DomainMatrix:
    def convert(x):
        return domain(x.numerator, x.denominator) if domain is QQ else domain(x)

    return DomainMatrix([[convert(x) for x in row] for row in m], (m.nrows, m.ncols), domain)


@st.composite
def small_or_rank_deficient(draw, max_dim=8):
    """An r×c integer matrix, r, c ≤ max_dim: dense, or a product through an
    inner dimension k ≤ min(r, c), so of rank at most k."""
    r, c = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):
        return IntMatrix([[draw(entry) for _ in range(c)] for _ in range(r)], ncols=c)
    k = draw(st.integers(0, min(r, c)))
    a = IntMatrix([[draw(entry) for _ in range(k)] for _ in range(r)], ncols=k)
    b = IntMatrix([[draw(entry) for _ in range(c)] for _ in range(k)], ncols=c)
    return a @ b


def _assert_smith(m):
    # U·m·V = S with U, V unimodular, and S diagonal with sympy's invariant factors
    U, S, V = smith_normal_form(m)
    assert U @ m @ V == S
    assert abs(det_exact(U)) == 1 and abs(det_exact(V)) == 1
    expected, _, _ = smith_normal_decomp(Matrix(m.tolist()), domain=ZZ)
    k = min(m.nrows, m.ncols)
    assert [S[i][i] for i in range(k)] == [int(expected[i, i]) for i in range(k)]
    assert all(S[i][j] == 0 for i in range(m.nrows) for j in range(m.ncols) if i != j)


class TestAgainstSympy:
    @ORACLE
    @given(dense_or_block_sparse(), st.data())
    def test_solve_rational(self, m, data):
        A = _to_domain(m, QQ)
        assume(A.det() != 0)
        k = data.draw(st.integers(1, 3))
        b = RatMatrix(
            [[Fraction(data.draw(st.integers(-BIG, BIG)), data.draw(st.integers(1, 10**6)))
              for _ in range(k)] for _ in range(m.nrows)]
        )
        x = solve_rational(m, b)
        expected = A.lu_solve(_to_domain(b, QQ)).to_list()
        assert x.tolist() == [[_sympy_fraction(v) for v in row] for row in expected]

    @pytest.mark.parametrize("seed", range(2))
    def test_rank_28_dense_and_block_sparse(self, seed):
        rng = random.Random(seed)
        dense = IntMatrix([[rng.randint(-BIG, BIG) for _ in range(28)] for _ in range(28)])
        b = IntMatrix([[rng.randint(-BIG, BIG) for _ in range(2)] for _ in range(28)])
        for m in (dense, standard("LambdaSharp").gram):
            expected = _to_domain(m, QQ).lu_solve(_to_domain(b, QQ)).to_list()
            x = solve_rational(m, b)
            assert x.tolist() == [[_sympy_fraction(v) for v in row] for row in expected]
            expected = _to_domain(m, ZZ).matmul(_to_domain(dense, ZZ)).to_list()
            assert (m @ dense).tolist() == [[int(v) for v in row] for row in expected]

    @ORACLE
    @given(dense_or_block_sparse())
    def test_invert_rational(self, m):
        A = _to_domain(m, QQ)
        assume(A.det() != 0)
        expected = A.inv().to_list()
        assert invert_rational(m).tolist() == [[_sympy_fraction(v) for v in row] for row in expected]

    @ORACLE
    @given(st.data())
    def test_matmul(self, data):
        r, k, c = (data.draw(st.integers(0, 28)) for _ in range(3))
        sparse = data.draw(st.booleans())
        entry = st.integers(-BIG, BIG)
        if sparse:
            entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)

        def draw_matrix(rows, cols):
            return IntMatrix(
                [[data.draw(entry) for _ in range(cols)] for _ in range(rows)], ncols=cols
            )

        a, b = draw_matrix(r, k), draw_matrix(k, c)
        product = a @ b
        assert (product.nrows, product.ncols) == (r, c)
        if r and k and c:
            expected = _to_domain(a, ZZ).matmul(_to_domain(b, ZZ)).to_list()
            assert product.tolist() == [[int(v) for v in row] for row in expected]
        else:
            assert all(x == 0 for row in product for x in row)

    @ORACLE
    @given(dense_or_block_sparse(max_rank=12, entries=st.integers(-50, 50)))
    def test_det_exact(self, m):
        assert det_exact(m) == int(_to_domain(m, ZZ).det())

    @settings(max_examples=100, deadline=None)
    @given(small_or_rank_deficient())
    def test_smith_normal_form(self, m):
        _assert_smith(m)

    @settings(max_examples=100, deadline=None)
    @given(small_or_rank_deficient())
    def test_hermite_normal_form(self, m):
        H, T = hermite_normal_form(m)
        assert T @ m == H
        assert abs(det_exact(T)) == 1
        # sympy's form is column-style and unique for the module the
        # columns span, so equal forms of the transposes mean equal row
        # lattices; zero rows of H span nothing
        assert sympy_hnf(Matrix(H.tolist()).T) == sympy_hnf(Matrix(m.tolist()).T)


def _helper_calls(run) -> list[tuple[str, bool]]:
    """Run ``run()`` with the normal-form helpers watched; one (helper, had
    work) pair per call.  A row or column gcd step has work when its pivot
    and the entry it clears are nonzero, a row update when its multiplier is."""
    calls = []
    row_op, col_op, addmul = linalg._gcd_row_op, linalg._gcd_col_op, linalg._addmul_row

    def watched_row_op(mat, trans, pr, i, col):
        calls.append(("row", bool(mat[pr][col] and mat[i][col])))
        row_op(mat, trans, pr, i, col)

    def watched_col_op(mat, trans, pc, j, row, dirty):
        calls.append(("column", bool(mat[row][pc] and mat[row][j])))
        return col_op(mat, trans, pc, j, row, dirty)

    def watched_addmul(rows, dst, src, k):
        calls.append(("addmul", bool(k)))
        addmul(rows, dst, src, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_gcd_row_op", watched_row_op)
        mp.setattr(linalg, "_gcd_col_op", watched_col_op)
        mp.setattr(linalg, "_addmul_row", watched_addmul)
        run()
    return calls


def _all_normal_forms(m):
    # the public forms, and the cores as the package's own callers run them
    for a in (m, m.transpose()):
        smith_normal_form(a)
        linalg._smith(a, True, False)
        linalg._smith(a, False, False)
        hermite_normal_form(a)
        linalg._hnf(a.tolist(), a.ncols, False)
        kernel_basis(a)


class TestNormalFormWork:
    """Smith and Hermite forms call their row and column helpers only for
    an entry to clear and a nonzero multiplier, with and without their
    transforms; the sympy oracles above check what they compute."""

    @pytest.mark.parametrize("d", [1, 2, 37, 1000])
    def test_k3_inputs(self, d):
        for m in (standard("Lambda2d", d).gram, build_iota2d(d).basis):
            calls = _helper_calls(lambda: _all_normal_forms(m))
            assert calls and all(work for _, work in calls)

    @settings(max_examples=100, deadline=None)
    @given(small_or_rank_deficient())
    def test_small_or_rank_deficient(self, m):
        assert all(work for _, work in _helper_calls(lambda: _all_normal_forms(m)))

    @ORACLE
    @given(dense_or_block_sparse(max_rank=12, entries=st.integers(-9, 9)))
    def test_dense_or_block_sparse(self, m):
        assert all(work for _, work in _helper_calls(lambda: _all_normal_forms(m)))


def _assert_cores_match_public_forms(m):
    U, S, V = smith_normal_form(m)
    for left, right in itertools.product((False, True), repeat=2):
        u, s, v = linalg._smith(m, left, right)
        assert s == S.tolist()
        assert u == (U.tolist() if left else None) and v == (V.tolist() if right else None)
    H, T = hermite_normal_form(m)
    assert linalg._hnf(m.tolist(), m.ncols, True) == (H.tolist(), T.tolist())
    assert linalg._hnf(m.tolist(), m.ncols, False) == (H.tolist(), None)
    # kernel_basis against its definition through the public form
    rank = sum(1 for row in H if any(row))
    assert kernel_basis(m) == hermite_normal_form(IntMatrix(T[rank:], ncols=m.nrows))[0]


@st.composite
def symmetric_and_left_factors(draw):
    """(B, G): G symmetric, dense or block-sparse with entries up to 10^12;
    B with 0 to n + 2 rows of width n, dense, block-sparse, or with zero rows."""
    m = draw(dense_or_block_sparse(max_rank=12))
    n = m.nrows
    g = IntMatrix([[m[i][j] + m[j][i] for j in range(n)] for i in range(n)])
    k = draw(st.integers(0, n + 2))
    kind = draw(st.sampled_from(("dense", "block", "zero rows")))
    entry = st.integers(-BIG, BIG)
    rows = [[draw(entry) for _ in range(n)] for _ in range(k)]
    if kind == "block":  # each row nonzero on one window of columns only
        for row in rows:
            lo = draw(st.integers(0, n - 1))
            hi = draw(st.integers(lo + 1, n))
            row[:] = [x if lo <= j < hi else 0 for j, x in enumerate(row)]
    elif kind == "zero rows":
        rows = [[0] * n if draw(st.booleans()) else row for row in rows]
    return IntMatrix(rows, ncols=n), g


@st.composite
def single_entry_left_factors(draw):
    """(B, G): G symmetric, dense or block-sparse with entries up to 10^12;
    B a signed permutation, or rows with one nonzero entry (columns may
    repeat) mixed with dense and zero rows, or no rows at all."""
    m = draw(dense_or_block_sparse(max_rank=12))
    n = m.nrows
    g = IntMatrix([[m[i][j] + m[j][i] for j in range(n)] for i in range(n)])
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        rows = [[draw(st.sampled_from((1, -1))) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        return IntMatrix(rows, ncols=n), g
    single = st.sampled_from((1, -1, 2, -7)) | st.integers(-BIG, BIG).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, n + 3))):
        kind, row = draw(st.sampled_from(("single", "single", "dense", "zero"))), [0] * n
        if kind == "single":
            row[draw(st.integers(0, n - 1))] = draw(single)
        elif kind == "dense":
            row = [draw(st.integers(-9, 9)) for _ in range(n)]
        rows.append(row)
    return IntMatrix(rows, ncols=n), g


@st.composite
def unit_row_matrices(draw, max_dim=8):
    """An r×c matrix, r ≠ c, of rows ±e_j mixed with dense, zero and
    two-entry rows; a unit row's column is often taken again by another."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim).filter(lambda c: c != r))
    rows = []
    for _ in range(r):
        kind, row = draw(st.sampled_from(("unit", "unit", "repeat", "dense", "zero", "two"))), [0] * c
        if kind == "repeat" and rows:
            row = [draw(st.sampled_from((1, -1))) * x for x in draw(st.sampled_from(rows))]
        elif kind in ("unit", "repeat"):
            row[draw(st.integers(0, c - 1))] = draw(st.sampled_from((1, -1)))
        elif kind == "dense":
            row = [draw(st.integers(-9, 9)) for _ in range(c)]
        elif kind == "two":
            k = min(2, c)
            for j in draw(st.lists(st.integers(0, c - 1), min_size=k, max_size=k, unique=True)):
                row[j] = draw(st.sampled_from((1, -1, 3)))
        rows.append(row)
    return IntMatrix(rows, ncols=c)


class TestTransformFreeCores:
    """The package's callers read the Smith and Hermite cores with only the
    transforms they need, and products B·G·Bᵀ from ``_congruence``: each
    must give what the public functions and two products give."""

    @settings(max_examples=100, deadline=None)
    @given(small_or_rank_deficient())
    def test_small_or_rank_deficient(self, m):
        _assert_cores_match_public_forms(m)
        _assert_cores_match_public_forms(m.transpose())

    @ORACLE
    @given(dense_or_block_sparse(max_rank=12, entries=st.integers(-9, 9)))
    def test_dense_or_block_sparse(self, m):
        _assert_cores_match_public_forms(m)

    @pytest.mark.parametrize("d", [1, 2, 37, 1000])
    def test_k3_inputs(self, d):
        E = build_iota2d(d)
        for m in (standard("Lambda2d", d).gram, E.basis, orthogonal_complement(E).basis):
            _assert_cores_match_public_forms(m)

    @ORACLE
    @given(symmetric_and_left_factors())
    def test_congruence_against_two_products(self, bg):
        b, g = bg
        c = linalg._congruence(b, g)
        assert (c.nrows, c.ncols) == (b.nrows, b.nrows)
        assert c == b @ g @ b.transpose()

    @ORACLE
    @given(single_entry_left_factors())
    @example(bg=(
        IntMatrix([[0, 0, -1, 0, 0], [1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, -1, 0]]),
        IntMatrix([[2, 1, 0, 0, 1], [1, -2, 3, 0, 0], [0, 3, 4, 1, 0], [0, 0, 1, 2, -1], [1, 0, 0, -1, 6]]),
    ))
    def test_congruence_on_single_entry_rows(self, bg):
        b, g = bg
        assert linalg._congruence(b, g) == b @ g @ b.transpose()

    @settings(max_examples=200, deadline=None)
    @given(unit_row_matrices())
    @example(m=IntMatrix([[0, 1, 0], [0, -1, 0], [2, 3, 5], [0, 0, 0]]))
    @example(m=IntMatrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 2, 4, 6]]))
    def test_smith_splits_off_unit_rows(self, m):
        """The S-only Smith core equals the S of the public form on
        matrices with unit rows ±e_j, repeated and non-square ones among
        them."""
        for a in (m, m.transpose()):
            assert linalg._smith(a, False, False)[1] == smith_normal_form(a)[1].tolist()

    def test_congruence_shapes(self):
        g = standard("U").gram
        assert linalg._congruence(IntMatrix([], ncols=2), g) == IntMatrix([], ncols=0)
        with pytest.raises(ValueError, match="shape mismatch"):
            linalg._congruence(IntMatrix([[1, 2, 3]]), g)

    @pytest.mark.parametrize("d", [1, 37])
    def test_is_isometry_refuses_near_isometries(self, d):
        # the extension of the E8(-1) swap, and the swap itself, with one
        # entry moved by ±1 or ±2: never an isometry of the Gram they fix
        E = build_iota2d(d)
        swap = [[int(j == ((i + 8) % 16 if i < 16 else i)) for j in range(21)] for i in range(21)]
        rng = random.Random(d)
        for L, g in ((E.ambient, extend_isometry(E, IntMatrix(swap))), (standard("Lambda2d", d), IntMatrix(swap))):
            assert is_isometry(L, g)
            n = L.rank
            for _ in range(60):
                i, j, delta = rng.randrange(n), rng.randrange(n), rng.choice((-2, -1, 1, 2))
                rows = g.tolist()
                rows[i][j] += delta
                near = IntMatrix(rows)
                assert near @ L.gram @ near.transpose() != L.gram
                assert not is_isometry(L, near)


# ---------------------------------------------------------------------------
# the formulas the integer-only kernels replaced
# ---------------------------------------------------------------------------

def _old_generator_lifts(gram: IntMatrix) -> RatMatrix:
    # rows w_i of V^{-1} with d_i > 1, pulled back to the dual: w_i·G^{-1}
    _, S, V = smith_normal_form(gram)
    vinv = invert_rational(V).to_int()
    rows = [vinv[i] for i in range(gram.nrows) if S[i][i] > 1]
    return RatMatrix(rows, ncols=gram.nrows) @ invert_rational(gram)


def _fraction_signature(gram: IntMatrix) -> Signature:
    # symmetric congruence reduction over ℚ, with hyperbolic 2x2 blocks
    # when every remaining diagonal entry vanishes
    a = [[Fraction(x) for x in row] for row in gram]
    active = list(range(gram.nrows))
    plus = minus = 0
    while active:
        piv = next((i for i in active if a[i][i]), None)
        if piv is not None:
            d = a[piv][piv]
            plus, minus = (plus + 1, minus) if d > 0 else (plus, minus + 1)
            rest = [j for j in active if j != piv]
            for s in rest:
                c = a[s][piv] / d
                for t in rest:
                    a[s][t] -= c * a[piv][t]
            active = rest
            continue
        i0, j0 = next((i, j) for i in active for j in active if j > i and a[i][j])
        b = a[i0][j0]
        plus, minus = plus + 1, minus + 1
        rest = [k for k in active if k not in (i0, j0)]
        for s in rest:
            alpha, beta = a[s][j0] / b, a[s][i0] / b
            for t in rest:
                a[s][t] -= alpha * a[i0][t] + beta * a[j0][t]
        active = rest
    return Signature(plus, minus)


def _old_saturate(basis: IntMatrix) -> IntMatrix:
    # the first rank(B) rows of V^{-1} from U·B·V = S, HNF-normalized
    _, _, V = smith_normal_form(basis)
    vinv = invert_rational(V).to_int()
    H, _ = hermite_normal_form(IntMatrix([vinv[i] for i in range(basis.nrows)], ncols=basis.ncols))
    return H


@st.composite
def symmetric_matrices(draw, max_rank=10, entries=st.integers(-30, 30), even=False, zero_diagonal=False):
    """Symmetric integer matrices; zero diagonals force zero pivots."""
    n = draw(st.integers(1, max_rank))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(entries)
            if i == j:
                if zero_diagonal and draw(st.booleans()):
                    v = 0
                elif even:
                    v *= 2
            a[i][j] = a[j][i] = v
    return IntMatrix(a)


@st.composite
def symmetric_grams(draw, **kwargs):
    """Non-degenerate symmetric Grams."""
    gram = draw(symmetric_matrices(**kwargs))
    assume(det_exact(gram) != 0)
    return gram


class TestAgainstReplacedFormulas:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 12, 60, 199, 1000])
    def test_lambda2d_lifts(self, d):
        L = standard("Lambda2d", d)
        assert discriminant_group(L).generator_lifts == _old_generator_lifts(L.gram)

    @ORACLE
    @given(symmetric_grams(even=True, zero_diagonal=True))
    def test_even_gram_lifts(self, gram):
        dg = discriminant_group(make_lattice(gram))
        assert dg.generator_lifts == _old_generator_lifts(gram)
        assert len(dg.invariant_factors) == dg.generator_lifts.nrows

    @settings(max_examples=150, deadline=None)
    @given(symmetric_grams(zero_diagonal=True))
    # each case of the zero-pivot rule e_k ← e_k + c·e_j: c = 1, c = -1
    # (2a[k][j] + a[j][j] = 0), a zero row, and c = 1 and c = -1 after an
    # earlier pivot
    @example(IntMatrix([[0, 1], [1, 0]]))
    @example(IntMatrix([[0, 1], [1, -2]]))
    @example(IntMatrix([[0, 0], [0, 1]]))
    @example(IntMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 0]]))
    @example(IntMatrix([[2, 2, 0], [2, 2, 1], [0, 1, -2]]))
    def test_signature(self, gram):
        if det_exact(gram) == 0:
            with pytest.raises(Degenerate):
                make_lattice(gram)
            return
        L = make_lattice(gram)
        assert (L.det, signature(L)) == (det_exact(gram), _fraction_signature(gram))

    @ORACLE
    @given(symmetric_grams(max_rank=14, entries=st.integers(-BIG, BIG), zero_diagonal=True))
    def test_signature_large_entries(self, gram):
        L = make_lattice(gram)
        assert (L.det, signature(L)) == (det_exact(gram), _fraction_signature(gram))

    @pytest.mark.parametrize("name", ["LambdaSharp", "LambdaK3"])
    def test_signature_of_standard_lattices(self, name):
        L = standard(name)
        assert signature(L) == _fraction_signature(L.gram)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_saturate(self, data):
        n = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, n))
        rows = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(k)]
        basis = IntMatrix(rows, ncols=n)
        _, S, _ = smith_normal_form(basis)
        assume(all(S[i][i] for i in range(k)))
        E = SublatticeEmbedding(make_lattice(IntMatrix.identity(n)), basis)
        assert saturate(E).basis == _old_saturate(basis)


# ---------------------------------------------------------------------------
# one elimination per Gram: the det and signature a Lattice carries
# ---------------------------------------------------------------------------

@st.composite
def possibly_singular(draw):
    """Small symmetric matrices, half of them with a repeated row and column."""
    gram = draw(symmetric_matrices(max_rank=6, entries=st.integers(-2, 2), zero_diagonal=True))
    n = gram.nrows
    if n > 1 and draw(st.booleans()):
        a = gram.tolist()
        for i in range(n):
            a[i][n - 1] = a[i][0]
        a[n - 1] = list(a[0])
        a[n - 1][n - 1] = a[0][0]
        gram = IntMatrix(a)
    return gram


_EXPR_ATOMS = ("U", "U(-2)", "U(3)", "E8(-1)", "An(3)", "An(2,-1)", "gen(-4)", "gen(6)", "Lambda2d(2)")


@st.composite
def lattice_exprs(draw, depth=1):
    """Expression texts over a few atoms: sums, powers and parentheses."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if depth and draw(st.booleans()):
            term = f"({draw(lattice_exprs(depth=depth - 1))})"
        else:
            term = draw(st.sampled_from(_EXPR_ATOMS))
        if draw(st.booleans()):
            term += f"^{draw(st.integers(1, 2))}"
        terms.append(term)
    return " + ".join(terms)


@pytest.fixture
def eliminations(monkeypatch):
    """Count the eliminations Lattice runs on its Grams."""
    calls = []
    kernel = quadlat.lattice._det_and_inertia

    def counted(m):
        calls.append(m.nrows)
        return kernel(m)

    monkeypatch.setattr(quadlat.lattice, "_det_and_inertia", counted)
    return calls


class TestOneElimination:
    @settings(max_examples=150, deadline=None)
    @given(possibly_singular())
    def test_degenerate_exactly_when_det_is_zero(self, gram):
        if det_exact(gram) == 0:
            with pytest.raises(Degenerate):
                make_lattice(gram)
        else:
            assert make_lattice(gram).det == det_exact(gram)

    @ORACLE
    @given(st.lists(symmetric_grams(max_rank=5, zero_diagonal=True), min_size=1, max_size=4))
    def test_direct_sum(self, grams):
        L = direct_sum(*(make_lattice(g) for g in grams))
        assert L.gram == block_diag(*grams)
        assert L.det == det_exact(L.gram)
        assert signature(L) == _fraction_signature(L.gram)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much]
    )
    @given(lattice_exprs())
    def test_expressions(self, text):
        L = evaluate_expr(text)
        assume(L.rank <= 40)
        assert L.det == det_exact(L.gram)
        assert signature(L) == _fraction_signature(L.gram)

    def test_signature_direct_sum_and_expressions_run_no_elimination(self, eliminations, monkeypatch):
        monkeypatch.setattr(quadlat.lattice, "_ATOMS", {})  # a cold atom memo, whatever ran before
        gram = standard("Lambda2d", 5).gram
        assert sorted(eliminations) == [2, 8]  # E8(-1) and U under LambdaK3; Lambda2d reads its block
        eliminations.clear()
        assert standard("LambdaSharp").rank == 28
        assert standard("Lambda2d", 6).rank == 21
        assert eliminations == []  # E8(-1) and U are built once, and Lambda2d builds no gen(-2d)
        eliminations.clear()
        L = make_lattice(gram)
        assert eliminations == [21]
        assert signature(L) == Signature(2, 19)
        assert eliminations == [21]
        M = direct_sum(L, L, standard("U"))
        assert eliminations == [21]
        assert signature(M) == Signature(5, 39)
        eliminations.clear()
        E = evaluate_expr("E8(-1)^2 + U^2 + gen(-10)")
        assert (E.det, signature(E)) == (L.det, signature(L))
        assert eliminations == []  # gen(-10) states its det and signature too

    @pytest.mark.parametrize("d", [1, 37, 1000])
    def test_complements_read_their_source(self, eliminations, d):
        k3 = standard("LambdaK3")
        S = SublatticeEmbedding(k3, IntMatrix([_polarization(d)]))
        E = build_iota2d(d)
        eliminations.clear()
        L = as_lattice(orthogonal_complement(S))
        assert eliminations == [1]  # the Gram [2d] of e + d·f, not the rank-21 complement
        assert (L.det, signature(L)) == (-2 * d, Signature(2, 19))
        M = as_lattice(orthogonal_complement(E))
        assert eliminations == [1]  # iota2d carries its lattice and index
        assert (M.det, signature(M)) == (-2 * d, Signature(0, 7))


# ---------------------------------------------------------------------------
# the finite quadratic module core against independent scans
# ---------------------------------------------------------------------------

@st.composite
def small_even_lattices(draw, max_order=64):
    """Even lattices of rank ≤ 4 whose discriminant group has at most max_order elements."""
    gram = draw(symmetric_grams(max_rank=4, entries=st.integers(-3, 3), even=True))
    assume(abs(det_exact(gram)) <= max_order)
    return make_lattice(gram)


def _lift(F, element):
    # the dual vector Σ c_i·lift_i in lattice coordinates
    lifts = F.group.generator_lifts
    return [sum(c * lifts[i][j] for i, c in enumerate(element)) for j in range(lifts.ncols)]


def _pairing_q(F):
    gram = F.lattice.gram
    vectors = {e: _lift(F, e) for e in F.elements()}
    return {e: pair(gram, v, v) % 2 for e, v in vectors.items()}


def _brute_isomorphic(F1, F2, negate):
    # every tuple of generator images of the right orders; keep one that
    # preserves q on all elements and is onto
    factors = F1.group.invariant_factors
    if factors != F2.group.invariant_factors:
        return False
    sign = -1 if negate else 1
    q1, q2 = _pairing_q(F1), _pairing_q(F2)

    def order(y):
        k, m = 1, y
        while any(m):
            k, m = k + 1, tuple((a + b) % d for a, b, d in zip(m, y, factors))
        return k

    images = [[y for y in q2 if order(y) == d] for d in factors]
    for gens in itertools.product(*images):
        def image(x):
            return tuple(sum(c * g[k] for c, g in zip(x, gens)) % d for k, d in enumerate(factors))

        if all(q2[image(x)] == (sign * q1[x]) % 2 for x in q1) and len({image(x) for x in q1}) == len(q2):
            return True
    return False


_POOL = [discriminant_form(L) for L in pool_lattices()]
_POOL_PAIRS = [
    (F1, F2)
    for F1 in _POOL
    for F2 in _POOL
    if F1.group.invariant_factors == F2.group.invariant_factors
]


def _fraction_closure(G):
    # subgroup_elements before the integer span: closure of the generator
    # rows under addition, reduced mod 1 in Fractions
    zero = tuple(Fraction(0) for _ in range(G.base.rank))
    elems = {zero}
    frontier = [zero]
    gens = [tuple(row) for row in G.generators]
    while frontier:
        e = frontier.pop()
        for g in gens:
            s = tuple((a + b) % 1 for a, b in zip(e, g))
            if s not in elems:
                elems.add(s)
                frontier.append(s)
    return frozenset(elems)


def _bfs_closure(gens, factors):
    zero = (0,) * len(factors)
    elems = {zero}
    frontier = [zero]
    while frontier:
        e = frontier.pop()
        for g in gens:
            s = tuple((a + b) % d for a, b, d in zip(e, g, factors))
            if s not in elems:
                elems.add(s)
                frontier.append(s)
    return frozenset(elems)


class TestFiniteModuleCore:
    @ORACLE
    @given(small_even_lattices())
    def test_q_and_b_against_pairings(self, L):
        F = discriminant_form(L)
        vectors = {e: _lift(F, e) for e in F.elements()}
        for x, vx in vectors.items():
            assert F.q_of(x) == pair(L.gram, vx, vx) % 2
            for y, vy in vectors.items():
                assert F.b_of(x, y) == pair(L.gram, vx, vy) % 1

    def test_values_off_the_exponent_grid_rejected(self):
        F = discriminant_form(standard("gen", 6))
        with pytest.raises(BadParameter):
            DiscriminantForm(F.group, (Fraction(1, 7),), F.b_values, F.lattice)

    def test_pool_has_both_verdicts(self):
        for negate in (False, True):
            verdicts = {disc_form_isomorphic(F1, F2, negate) for F1, F2 in _POOL_PAIRS}
            assert verdicts == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_POOL_PAIRS), st.booleans())
    def test_isomorphism_against_scan(self, forms, negate):
        F1, F2 = forms
        assert disc_form_isomorphic(F1, F2, negate) == _brute_isomorphic(F1, F2, negate)

    @ORACLE
    @given(small_even_lattices(), st.data())
    def test_subgroup_elements_against_fraction_closure(self, L, data):
        F = discriminant_form(L)
        small = st.integers(-2, 2)
        rows = []
        for _ in range(data.draw(st.integers(0, 3))):
            v = _lift(F, [data.draw(st.integers(-3, 3)) for _ in F.group.invariant_factors])
            rows.append([x + data.draw(small) for x in v])
        G = GlueSubgroup(L, RatMatrix(rows, ncols=L.rank))
        closure = _fraction_closure(G)
        assert subgroup_elements(G) == closure
        assert glue_order(G) == len(closure)


# the O(s²) evaluations on the generator numerators and the element order
# that the searches below use, so that they read no element table

def _q_num(F, x):
    # q(x)·N mod 2N
    pairs = itertools.combinations(range(len(x)), 2)
    total = sum(c * c * q for c, q in zip(x, F._q_gen)) + 2 * sum(x[i] * x[j] * F._b_gen[i][j] for i, j in pairs)
    return total % (2 * F._exponent)


def _b_num(F, x, y):
    # b(x, y)·N mod N
    return sum(a * c * F._b_gen[i][j] for i, a in enumerate(x) for j, c in enumerate(y)) % F._exponent


def _element_order(x, factors):
    return lcm(1, *(d // gcd(d, c) for c, d in zip(x, factors)))


def _whole_group_isomorphic(F1, F2, negate):
    # the search disc_form_isomorphic ran on the whole group before the
    # prime-by-prime split: generator images of the right order and q value,
    # pruned by b, with the span test at the leaf.  One exact pruning is
    # added: an isometry maps the elements orthogonal to g_0..g_{i-1} onto
    # those orthogonal to their images, so the q values on the two sets
    # must agree as multisets.  Without it a non-isomorphic pair on (ℤ/3)⁵
    # walks every isometric image of a rank-4 subspace (about a minute).
    factors = F1.group.invariant_factors
    if factors != F2.group.invariant_factors:
        return False
    sign = -1 if negate else 1
    s = len(factors)
    N = F1._exponent
    orders = [(y, _element_order(y, factors)) for y in F2.elements()]
    candidates = []
    for i in range(s):
        want_q = (sign * F1._q_gen[i]) % (2 * N)
        cand = [y for y, order in orders if order == factors[i] and _q_num(F2, y) == want_q]
        if not cand:
            return False
        candidates.append(cand)

    # the q values of F1, times sign, on the complement of g_0..g_{i-1}
    complement1 = list(F1.elements())
    profiles1 = [Counter(sign * _q_num(F1, x) % (2 * N) for x in complement1)]
    for i in range(s):
        g = tuple(int(k == i) for k in range(s))
        complement1 = [x for x in complement1 if _b_num(F1, x, g) == 0]
        profiles1.append(Counter(sign * _q_num(F1, x) % (2 * N) for x in complement1))

    chosen = []

    def search(i, complement2):
        if Counter(_q_num(F2, x) for x in complement2) != profiles1[i]:
            return False
        if i == s:
            return len(_bfs_closure(chosen, factors)) == F1.order
        want_b = [(sign * F1._b_gen[i][j]) % N for j in range(i)]
        for y in candidates[i]:
            if all(_b_num(F2, y, yj) == want_b[j] for j, yj in enumerate(chosen)):
                chosen.append(y)
                if search(i + 1, [x for x in complement2 if _b_num(F2, x, y) == 0]):
                    return True
                chosen.pop()
        return False

    return search(0, list(F2.elements()))


def _assert_both_searches_agree(F1, F2):
    for negate in (False, True):
        assert disc_form_isomorphic(F1, F2, negate) == _whole_group_isomorphic(F1, F2, negate), (
            F1.group.invariant_factors, F1.q_values, F1.b_values, F2.q_values, F2.b_values, negate
        )


def _squares(plus, minus):
    # the sums of two copies of a lattice or of its negative
    return [(plus, plus), (plus, minus), (minus, minus)]


# even lattices with small discriminant groups, grouped by invariant
# factors; a sum of one member per drawn class and a sum of other members
# of the same classes have equal invariant factors
_SIBLINGS = [
    [("gen", 2), ("gen", -2)],
    [("An", 2), ("An", 2, -1)],
    [("gen", 4), ("gen", -4), ("An", 3), ("An", 3, -1)],
    [("An", 4), ("An", 4, -1)],
    [("gen", 6), ("gen", -6), ("An", 5), ("An", 5, -1)],
    [("An", 6), ("An", 6, -1)],
    [("gen", 10), ("gen", -10)],
    [("gen", 18), ("gen", -18), ("An", 8), ("An", 8, -1)],
    [("U", 2)] + _squares(("gen", 2), ("gen", -2)),
    [("U", 3)] + _squares(("An", 2), ("An", 2, -1)),
    [("U", 4)] + _squares(("gen", 4), ("gen", -4)),
    [("U", 5)] + _squares(("An", 4), ("An", 4, -1)),
    [("U", 6)] + _squares(("gen", 6), ("gen", -6)),
]
_Z6, _Z10, _U3, _U5, _U6 = (_SIBLINGS[i] for i in (4, 6, 9, 11, 12))


def _member(spec):
    if isinstance(spec[0], tuple):
        return direct_sum(*(standard(*part) for part in spec))
    return standard(*spec)


@st.composite
def sibling_sums(draw, max_order=1000):
    """Two even lattices with equal invariant factors and |A| ≤ max_order:
    sums of members of the same sibling classes."""
    classes = draw(st.lists(st.sampled_from(_SIBLINGS), min_size=1, max_size=3))
    L1 = direct_sum(*(_member(draw(st.sampled_from(c))) for c in classes))
    L2 = direct_sum(*(_member(draw(st.sampled_from(c))) for c in classes))
    assume(abs(L1.det) <= max_order)
    return L1, L2


def _hand_built(factors, q_num, b_num):
    # a form given by its numerators over N = factors[-1]; the lattice only
    # supplies a group with these invariant factors
    N = factors[-1]
    L = direct_sum(*(standard("gen", d) for d in factors))
    b = RatMatrix([[Fraction(x, N) for x in row] for row in b_num], ncols=len(factors))
    return DiscriminantForm(discriminant_group(L), tuple(Fraction(x, N) for x in q_num), b, L)


_HAND_BUILT_FACTORS = [(3,), (9,), (2, 2), (3, 3), (2, 4), (3, 9), (5, 5), (2, 6), (6, 6), (3, 3, 3), (3, 15), (4, 12)]


@st.composite
def hand_built_forms(draw, factors):
    """A well-formed q and b on ⊕ ℤ/dᵢ, degenerate ones included: each
    b(gᵢ, gⱼ) in (1/gcd(dᵢ, dⱼ))ℤ, each q(gᵢ) ≡ b(gᵢ, gᵢ) mod 1 with
    dᵢ²·q(gᵢ) ∈ 2ℤ."""
    N, s = factors[-1], len(factors)
    b = [[0] * s for _ in range(s)]
    for i in range(s):
        for j in range(i, s):
            g = gcd(factors[i], factors[j])
            b[i][j] = b[j][i] = draw(st.integers(0, g - 1)) * (N // g)
    q = []
    for i, d in enumerate(factors):
        lifts = [b[i][i] + e * N for e in (0, 1) if d * d * (b[i][i] + e * N) % (2 * N) == 0]
        q.append(draw(st.sampled_from(lifts)))
    return _hand_built(factors, q, b)


@st.composite
def relabelled(draw, F):
    """±F read on another generating set: isomorphic to F, or to -F."""
    factors = F.group.invariant_factors
    by_order = {d: [y for y in F.elements() if _element_order(y, factors) == d] for d in set(factors)}
    images = [draw(st.sampled_from(by_order[d])) for d in factors]
    assume(len(_bfs_closure(images, factors)) == F.order)
    sign = draw(st.sampled_from((1, -1)))
    N = F._exponent
    q = [sign * _q_num(F, y) % (2 * N) for y in images]
    b = [[sign * _b_num(F, y, z) % N for z in images] for y in images]
    return _hand_built(factors, q, b)


def _assert_table_matches_form(F):
    # every element in int order: coefficient tuples in lexicographic order,
    # q and b as q_of and b_of give them, sums coefficient by coefficient
    factors, N = F.group.invariant_factors, F._exponent
    T = _ElementTable(factors, N, F._q_gen, F._b_gen)
    elements = list(F.elements())
    assert len(T.q) == F.order and [T.coefficients(x) for x in range(F.order)] == elements == sorted(elements)
    s = len(factors)
    assert [T.coefficients(g) for g in T.generators] == [tuple(int(i == j) for j in range(s)) for i in range(s)]
    assert T.orders() == [_element_order(x, factors) for x in elements]
    for x, cx in enumerate(elements):
        assert Fraction(T.q[x], N) == F.q_of(cx)
        for y, cy in enumerate(elements):
            assert T.coefficients(T.add(x, y)) == tuple((a + b) % d for a, b, d in zip(cx, cy, factors))
            assert Fraction(T.b(x, y), N) == F.b_of(cx, cy)


class TestElementTable:
    @ORACLE
    @given(small_even_lattices())
    def test_lattice_forms(self, L):
        _assert_table_matches_form(discriminant_form(L))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_HAND_BUILT_FACTORS).flatmap(hand_built_forms))
    def test_hand_built_forms(self, F):
        _assert_table_matches_form(F)

    def test_degenerate_hand_built_forms(self):
        for F in (_hand_built((3, 3), (0, 0), ((0, 0), (0, 0))), _hand_built((9,), (12,), ((3,),)),
                  _hand_built((2, 2, 2), (1, 2, 3), ((1, 0, 1), (0, 0, 0), (1, 0, 1)))):
            _assert_table_matches_form(F)


class TestPrimeByPrimeIsomorphism:
    def test_pool_against_whole_group_search(self):
        for F1, F2 in _POOL_PAIRS:
            _assert_both_searches_agree(F1, F2)

    @ORACLE
    @given(sibling_sums())
    def test_sibling_sums_against_whole_group_search(self, lattices):
        _assert_both_searches_agree(*map(discriminant_form, lattices))

    def test_odd_parts_of_rank_two(self):
        # U(3)², U(5) ⊕ gen(10) and gen(6) ⊕ gen(-6) against sums of
        # siblings with the same invariant factors
        families = [
            [direct_sum(standard("U", 3), _member(b)) for b in _U3],
            [direct_sum(_member(a), _member(b)) for a in _U5 for b in _Z10],
            [direct_sum(_member(a), _member(b)) for a in _Z6 for b in _Z6] + [_member(a) for a in _U6],
        ]
        verdicts = set()
        for family in families:
            forms = [discriminant_form(L) for L in family]
            for F1 in forms:
                for F2 in forms:
                    _assert_both_searches_agree(F1, F2)
                    verdicts.add(disc_form_isomorphic(F1, F2))
        assert verdicts == {True, False}

    @ORACLE
    @given(small_even_lattices(max_order=1000), small_even_lattices(max_order=1000))
    def test_random_pairs_against_whole_group_search(self, L1, L2):
        _assert_both_searches_agree(discriminant_form(L1), discriminant_form(L2))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_HAND_BUILT_FACTORS).flatmap(lambda f: st.tuples(hand_built_forms(f), hand_built_forms(f))),
           st.data())
    def test_hand_built_forms_against_whole_group_search(self, forms, data):
        F1, F2 = forms
        _assert_both_searches_agree(F1, F2)
        _assert_both_searches_agree(F1, data.draw(relabelled(F1)))

    def test_degenerate_hand_built_forms(self):
        zero33 = _hand_built((3, 3), (0, 0), ((0, 0), (0, 0)))
        half33 = _hand_built((3, 3), (4, 0), ((1, 0), (0, 0)))  # q(g0) = 4/3, b(g1, ·) = 0
        u3 = discriminant_form(standard("U", 3))
        deg9 = _hand_built((9,), (12,), ((3,),))  # b(g, g) = 1/3: the socle 3g is in the radical
        zero9 = _hand_built((9,), (0,), ((0,),))
        a8 = discriminant_form(standard("An", 8))
        zero2222 = _hand_built((2,) * 4, (0,) * 4, ((0,) * 4,) * 4)
        u2_2 = discriminant_form(direct_sum(standard("U", 2), standard("U", 2)))
        zero333 = _hand_built((3,) * 3, (0,) * 3, ((0,) * 3,) * 3)
        u3_a2 = discriminant_form(direct_sum(standard("U", 3), standard("An", 2)))
        for F1, F2 in itertools.product([zero33, half33, u3], repeat=2):
            _assert_both_searches_agree(F1, F2)
        for F1, F2 in itertools.product([zero2222, u2_2], repeat=2):
            _assert_both_searches_agree(F1, F2)
        for F1, F2 in itertools.product([zero333, u3_a2], repeat=2):
            _assert_both_searches_agree(F1, F2)
        # equal counts per (order, q) but radicals of order 4 and 2: images
        # matching every q and b value exist, and none of them generate
        rad4 = _hand_built((2, 2, 2), (1, 2, 3), ((1, 0, 1), (0, 0, 0), (1, 0, 1)))
        rad2 = _hand_built((2, 2, 2), (2, 3, 3), ((0, 0, 0), (0, 1, 0), (0, 0, 1)))
        for F1, F2 in itertools.product([rad4, rad2], repeat=2):
            _assert_both_searches_agree(F1, F2)
        assert not disc_form_isomorphic(rad4, rad2) and not disc_form_isomorphic(rad4, rad2, negate=True)
        for F1, F2 in itertools.product([deg9, zero9, a8], repeat=2):
            _assert_both_searches_agree(F1, F2)
        assert disc_form_isomorphic(zero33, zero33) and not disc_form_isomorphic(zero33, u3)
        assert disc_form_isomorphic(half33, half33) and not disc_form_isomorphic(half33, zero33)
        assert disc_form_isomorphic(zero2222, zero2222) and not disc_form_isomorphic(zero2222, u2_2)
        assert disc_form_isomorphic(zero333, zero333) and not disc_form_isomorphic(zero333, u3_a2)


# ---------------------------------------------------------------------------
# integer paths for dual vectors against the Fraction products they replaced
# ---------------------------------------------------------------------------

def _old_in_tilde_O(L, g):
    # each generator lift, moved by g, must differ from itself by a lattice vector
    if not is_isometry(L, g):
        return False
    lifts = discriminant_group(L).generator_lifts
    for row in lifts:
        moved = (RatMatrix([row]) @ g)[0]
        if any((a - b).denominator != 1 for a, b in zip(moved, row)):
            return False
    return True


def _signed_permutation(perm, signs):
    n = len(perm)
    return IntMatrix([[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)])


class TestFractionsOnRead:
    """A ``RatMatrix`` stores one integer matrix over one denominator, and a
    ``DiscriminantForm`` its integers over the exponent: the k3 pipeline, the
    glue path and form isomorphism build no ``Fraction`` in ``linalg``,
    ``lattice`` or ``glue`` until a value is read."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return Fraction(*args)

        for module in (linalg, quadlat.lattice, quadlat.glue):
            monkeypatch.setattr(module, "Fraction", counted)
        return built

    @pytest.mark.parametrize("d", [1, 37, 1000])
    def test_k3_pipeline(self, built, d):
        L = standard("Lambda2d", d)
        lifts = discriminant_group(L).generator_lifts
        assert nikulin_check(L, Signature(2, 26)).guaranteed
        E = build_iota2d(d)
        assert is_primitive(E)
        F = discriminant_form(as_lattice(orthogonal_complement(E)))
        assert disc_form_isomorphic(F, discriminant_form(standard("gen", -2 * d)), negate=True)
        assert is_isometry(E.ambient, extend_isometry(E, _E8_SWAP)) and in_tilde_O(L, _E8_SWAP)
        assert built == []
        assert len(F.q_values) == len(built) == 1  # one per generator
        assert lifts[0][20] == Fraction(-1, 2 * d) and len(built) == 1 + 21  # one row read, one per entry

    def test_u2_cubed_glue(self, built):
        F = discriminant_form(evaluate_expr("U(2)^3"))
        subgroups = isotropic_subgroups(F)
        assert sum(abs(overlattice_from_glue(G).det) == 1 for G in subgroups) == 30  # glue order 8 of 171
        assert built == []
        assert F.q_values == (0,) * 6 and len(built) == 6  # one per generator
        assert subgroups[-1].generators.tolist() and len(built) > 6

    def test_u2_cubed_isomorphism(self, built):
        F = discriminant_form(evaluate_expr("U(2)^3"))
        assert disc_form_isomorphic(F, F) and disc_form_isomorphic(F, F, negate=True)
        assert built == []
        assert F.q_values == (0,) * 6 and len(built) == 6  # one per generator


class TestNoReferenceCycles:
    """The recursive searches (``search`` of form isomorphism, ``descend``
    of the norm search, ``grow`` of the glue search) unbind themselves when
    they return, the column search of a point count is no closure, and a
    complement keeps its source's basis, not its source, so their ops leave
    nothing for the cyclic collector."""

    @staticmethod
    def _garbage(op) -> int:
        gc.collect()
        gc.disable()
        try:
            op()
        finally:
            found = gc.collect()
            gc.enable()
        return found

    @staticmethod
    def _k3_ops():
        for d in range(1, 11):
            L = standard("Lambda2d", d)
            nikulin_check(L, Signature(2, 26))
            E = build_iota2d(d)
            F = discriminant_form(as_lattice(orthogonal_complement(E)))
            disc_form_isomorphic(F, discriminant_form(standard("gen", -2 * d)), negate=True)
            extend_isometry(E, _E8_SWAP)
            S = SublatticeEmbedding(standard("LambdaK3"), IntMatrix([_polarization(d)]))
            as_lattice(orthogonal_complement(S))  # the complement keeps S's basis, not S

    def test_searches_leave_no_garbage(self):
        F = discriminant_form(evaluate_expr("U(2)^3"))
        assert self._garbage(self._k3_ops) == 0
        assert self._garbage(lambda: isotropic_subgroups(F)) == 0
        assert self._garbage(lambda: disc_form_isomorphic(F, F, negate=True)) == 0
        assert self._garbage(lambda: count_norm_vectors(standard("E8", -1), -4)) == 0
        assert self._garbage(lambda: brute_force_points("orthogonal", 2, 3, of=standard("U"))) == 0


_U2_U2_U3 = direct_sum(standard("U", 2), standard("U", 2), standard("U", 3))
# isometries of U(2)² ⊕ U(3) that permute coordinates up to sign: swap
# e and f in one plane, negate one plane, swap the two U(2) planes
_BLOCK_MOVES = (
    [_signed_permutation(perm, [1] * 6) for perm in ([1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4])]
    + [_signed_permutation(range(6), [-1 if i // 2 == k else 1 for i in range(6)]) for k in range(3)]
    + [_signed_permutation([2, 3, 0, 1, 4, 5], [1] * 6)]
)


class TestDualVectorIntegerPaths:
    @ORACLE
    @given(st.data())
    def test_numerators_round_trip(self, data):
        r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        entry = st.fractions(max_denominator=60).filter(lambda x: abs(x) < 10**6)
        ref = [[data.draw(entry) for _ in range(c)] for _ in range(r)]
        m = RatMatrix(ref, ncols=c)
        num, den = m._numerators()
        assert m._numerators()[0] is num  # the stored pair, not a copy
        assert den == m.common_denominator() == lcm(*(x.denominator for row in ref for x in row))
        assert all(num[i][j] == ref[i][j] * den for i in range(r) for j in range(c))
        assert RatMatrix._over(num, den) == m
        # _over divides out a common factor: it stores the same pair as the
        # public constructor, so the two compare, hash and read alike
        k = data.draw(st.integers(1, 50))
        again = RatMatrix._over(num.scale(k), den * k)
        assert again == m and hash(again) == hash(m) and again._numerators() == m._numerators()
        assert again.tolist() == m.tolist() == ref and list(again) == list(map(tuple, ref))
        assert m[1:] == tuple(map(tuple, ref[1:])) and (not r or m[-1] == tuple(ref[-1]))
        assert (RatMatrix._over(num, 2 * den) == m) == (not any(map(any, ref)))  # halved unless zero
        # the readers and builders agree with the Fraction lists they stand for
        cols = [list(col) for col in zip(*ref)] if r else [[] for _ in range(c)]
        assert m.transpose().tolist() == cols and m.transpose().nrows == c
        other_rat = [[data.draw(entry) for _ in range(c)] for _ in range(data.draw(st.integers(0, 3)))]
        other_int = [[data.draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(data.draw(st.integers(0, 3)))]
        assert m.stack(RatMatrix(other_rat, ncols=c)).tolist() == ref + other_rat
        assert m.stack(IntMatrix(other_int, ncols=c)) == RatMatrix(ref + other_int, ncols=c)
        s = data.draw(st.fractions(max_denominator=12).filter(lambda x: x <= 0) | entry)
        assert m.scale(s).tolist() == [[s * x for x in row] for row in ref]
        assert m.scale(s) == RatMatrix([[s * x for x in row] for row in ref], ncols=c)
        # and the integral test and integer view read that form
        assert m.is_integral() == (den == 1)
        if den == 1:
            assert m.to_int() is num
        else:
            with pytest.raises(ValueError):
                m.to_int()

    @ORACLE
    @given(small_even_lattices())
    def test_isotropic_rows_against_fraction_product(self, L):
        F = discriminant_form(L)
        factors = F.group.invariant_factors
        lifts = F.group.generator_lifts
        # the lifts are independent, so each coefficient tuple has its own row
        by_row = {(RatMatrix([e], ncols=len(factors)) @ lifts)[0]: e for e in F.elements()}
        for G in isotropic_subgroups(F):
            gens = [by_row[row] for row in G.generators]
            assert RatMatrix(gens, ncols=len(factors)) @ lifts == G.generators
            # and they are the canonical generators of the subgroup they span
            K = _bfs_closure(gens, factors)
            for i, g in enumerate(gens):
                assert g == min(K - _bfs_closure(gens[:i], factors))

    @pytest.mark.parametrize("seed", range(3))
    def test_in_tilde_O_against_fraction_product(self, seed):
        rng = random.Random(seed)
        verdicts = []
        for _ in range(300):
            if rng.random() < 0.5:
                g = _signed_permutation(rng.sample(range(6), 6), [rng.choice((1, -1)) for _ in range(6)])
            else:
                g = IntMatrix.identity(6)
                for _ in range(rng.randint(0, 8)):
                    g = g @ rng.choice(_BLOCK_MOVES)
            verdict = in_tilde_O(_U2_U2_U3, g)
            assert verdict == _old_in_tilde_O(_U2_U2_U3, g)
            verdicts.append(verdict)
        assert set(verdicts) == {True, False}


@st.composite
def glue_lattices(draw):
    """The criterion-5 family (even, rank ≤ 4, |det| ≤ 50), or an
    orthogonal sum of U(n) and even gen(k) with |A| ≤ 150."""
    if draw(st.booleans()):
        return random_even_lattice(random.Random(draw(st.integers(0, 2**32))))
    part = st.one_of(
        st.integers(1, 6).map(lambda n: standard("U", n)),
        st.integers(-6, 6).filter(bool).map(lambda k: standard("gen", 2 * k)),
    )
    L = direct_sum(*draw(st.lists(part, min_size=1, max_size=4)))
    assume(abs(L.det) <= 150)
    return L


class TestTrustedGluePath:
    """The glue path builds its forms, subgroups and overlattices without
    re-running the public constructors' checks; those constructors, given
    the same data, agree with it exactly."""

    @ORACLE
    @given(glue_lattices())
    def test_trusted_results_match_the_validating_constructors(self, L):
        F = discriminant_form(L)
        checked = DiscriminantForm(F.group, F.q_values, F.b_values, F.lattice)
        assert (checked._exponent, checked._q_gen, checked._b_gen) == (F._exponent, F._q_gen, F._b_gen)
        assert checked == F and hash(checked) == hash(F)
        for G in isotropic_subgroups(F):
            # a fresh matrix reduces its entries to the pair _over stored for G
            again = GlueSubgroup(G.base, RatMatrix(G.generators, ncols=L.rank))
            assert again.generators._numerators() == G.generators._numerators()
            M = overlattice_from_glue(G)
            validated = make_lattice(M.gram)
            assert (validated.det, signature(validated)) == (M.det, signature(M))

    def test_discriminant_pairing_exactness_is_checked(self, monkeypatch):
        # a lift of order 36 in a group of exponent 6: q·6 = 1/6 is not an integer
        corrupted = DiscriminantGroup((6,), RatMatrix([[Fraction(1, 36)]]))
        monkeypatch.setattr(quadlat.lattice, "discriminant_group", lambda L: corrupted)
        with pytest.raises(InvariantViolation):
            discriminant_form(standard("gen", 6))

    def test_overlattice_det_exactness_is_checked(self, monkeypatch):
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        G = isotropic_subgroups(discriminant_form(L))[1]  # generated by (1/2, 1/2)
        # a basis of the same even overlattice that is not triangular, so its
        # diagonal does not give its det: -4·1²/2⁴ is not an integer
        skew = [[1, 1], [1, -1], [0, 0]]
        monkeypatch.setattr(quadlat.glue, "_hnf", lambda rows, ncols, transform: (skew, None))
        with pytest.raises(InvariantViolation):
            overlattice_from_glue(G)

    def test_glue_order_exactness_is_checked(self, monkeypatch):
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        G = isotropic_subgroups(discriminant_form(L))[1]  # generated by (1/2, 1/2), den 2
        # a pivot 3 that does not divide den: 2²/3 is not an integer
        monkeypatch.setattr(quadlat.glue, "_hnf", lambda rows, ncols, transform: ([[3, 0], [0, 1], [0, 0]], None))
        with pytest.raises(InvariantViolation):
            glue_order(G)


def _fraction_product(a, b):
    # the Fraction dot products RatMatrix multiplied with before its integer product
    k = a.ncols
    return [[sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(k)), Fraction(0))
             for j in range(b.ncols)] for i in range(a.nrows)]


@st.composite
def int_or_rat_matrices(draw, rows, cols, rational):
    if rational:
        entry = st.fractions(max_denominator=60).filter(lambda x: abs(x) < 10**6)
        return RatMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)], ncols=cols)
    return IntMatrix([[draw(st.integers(-BIG, BIG)) for _ in range(cols)] for _ in range(rows)], ncols=cols)


class TestRatMatrixProducts:
    """``RatMatrix`` products run on the integer product of numerators; each
    is checked against Fraction dot products, 0-row and 0-column shapes
    included."""

    @ORACLE
    @given(st.data(), st.sampled_from([(True, True), (True, False), (False, True)]))
    def test_products_against_fraction_dot_products(self, data, kinds):
        r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        a = data.draw(int_or_rat_matrices(r, k, kinds[0]))
        b = data.draw(int_or_rat_matrices(k, c, kinds[1]))
        product = a @ b
        assert isinstance(product, RatMatrix) and (product.nrows, product.ncols) == (r, c)
        assert product.tolist() == _fraction_product(a, b)
        assert all(type(x) is Fraction for row in product for x in row)

    @ORACLE
    @given(st.data(), st.booleans())
    def test_stack(self, data, rational):
        r1, r2, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        top = data.draw(int_or_rat_matrices(r1, c, True))
        bottom = data.draw(int_or_rat_matrices(r2, c, rational))
        stacked = top.stack(bottom)
        assert isinstance(stacked, RatMatrix) and (stacked.nrows, stacked.ncols) == (r1 + r2, c)
        assert stacked.tolist() == [[Fraction(x) for x in row] for row in [*top, *bottom]]
        assert all(type(x) is Fraction for row in stacked for x in row)

    def test_shape_mismatch(self):
        rat = RatMatrix([[Fraction(1, 2), 1]])
        for a, b in [(rat, rat), (rat, IntMatrix([[1, 2]])), (IntMatrix([[1, 2]]), rat)]:
            with pytest.raises(ValueError, match="shape mismatch in matrix product"):
                a @ b
        with pytest.raises(ValueError, match="shape mismatch in vertical stack"):
            rat.stack(RatMatrix([], ncols=3))


# ---------------------------------------------------------------------------
# the square completion behind the norm search, on general definite Grams
# ---------------------------------------------------------------------------

@st.composite
def positive_definite_grams(draw, max_rank=6):
    """B·Bᵀ + D for an integer B and a positive diagonal D: positive definite,
    with (G⁻¹)ᵢᵢ ≤ 1/Dᵢᵢ, so the scan boxes below stay small."""
    n = draw(st.integers(0, max_rank))
    b = IntMatrix([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)], ncols=n)
    d = [draw(st.integers(1, 4)) for _ in range(n)]
    bbt = b @ b.transpose()
    return IntMatrix([[bbt[i][j] + (d[i] if i == j else 0) for j in range(n)] for i in range(n)], ncols=n)


class TestSquareCompletion:
    @ORACLE
    @given(positive_definite_grams())
    def test_udu_against_trailing_minors(self, gram):
        n = gram.nrows
        diag, coef = _udu(gram)
        # G = U·D·Uᵀ exactly, U unit upper-triangular with U[i][k] = u_ik
        u = [[Fraction(1) if i == k else coef[i][k] if i < k else Fraction(0) for k in range(n)] for i in range(n)]
        assert all(
            sum(u[i][k] * diag[k] * u[j][k] for k in range(n)) == gram[i][j] for i in range(n) for j in range(n)
        )
        # d_k = T_k/T_{k+1}, T_k the trailing principal minor det G[k:, k:]
        g = Matrix(gram.tolist())
        minors = [int(g[k:, k:].det()) for k in range(n)] + [1]
        assert diag == tuple(Fraction(minors[k], minors[k + 1]) for k in range(n))

    @ORACLE
    @given(positive_definite_grams(), st.integers(0, 10))
    def test_norm_vectors_against_box_scan(self, gram, t):
        # |x_i|² ≤ Q(x)·(G⁻¹)_ii (Cauchy–Schwarz), so the box holds every vector of norm t
        inverse = Matrix(gram.tolist()).inv() if gram.nrows else Matrix([])
        radii = [isqrt(int(t * inverse[i, i].p) // int(inverse[i, i].q)) for i in range(gram.nrows)]
        box = itertools.product(*(range(-r, r + 1) for r in radii))
        expected = [x for x in box if pair(gram, x, x) == t]
        assert list(_norm_vectors(gram, t)) == expected


# ---------------------------------------------------------------------------
# the one Bareiss step: solve_rational and the symmetric det against sympy
# ---------------------------------------------------------------------------

@st.composite
def zero_leading_pivots(draw, max_rank=8):
    """A square integer matrix whose leading z×z block is zero (1 ≤ z ≤ n/2),
    so its first z leading minors vanish and every pivot rule must act."""
    n = draw(st.integers(2, max_rank))
    z = draw(st.integers(1, n // 2))
    entry = st.integers(-BIG, BIG) if draw(st.booleans()) else st.integers(-3, 3)
    return IntMatrix([[0 if i < z and j < z else draw(entry) for j in range(n)] for i in range(n)])


@st.composite
def right_hand_sides(draw, n):
    """n×k right-hand sides, k ≤ 3, some columns all zero."""
    k = draw(st.integers(0, 3))
    zero = [draw(st.booleans()) for _ in range(k)]
    return IntMatrix([[0 if zero[j] else draw(st.integers(-BIG, BIG)) for j in range(k)] for _ in range(n)], ncols=k)


def _assert_solves(m, b):
    # m·X = den·b by sympy, for the stored pair X/den of the solution: with
    # m non-singular and X/den in lowest terms, that pair is the one answer
    x, den = solve_rational(m, b)._numerators()
    assert (x.nrows, x.ncols) == (b.nrows, b.ncols)
    assert den > 0 and gcd(den, *itertools.chain.from_iterable(x)) == 1
    if b.ncols:
        product = _to_domain(m, ZZ).matmul(_to_domain(x, ZZ)).to_list()
        assert [[int(v) for v in row] for row in product] == [[den * v for v in row] for row in b]


def _sympy_solve(m, b, den_b=1):
    """The solution of m·x = b/den_b as a RatMatrix, from sympy's
    fraction-free solve m·X = den·b."""
    x, den = _to_domain(m, ZZ).solve_den(_to_domain(b, ZZ))
    sign = -1 if den < 0 else 1
    num = IntMatrix([[sign * int(v) for v in row] for row in x.to_list()], ncols=b.ncols)
    return RatMatrix._over(num, sign * int(den) * den_b)


# swaps the two E8(-1) blocks of Lambda2d(d) and fixes U^2 + gen(-2d)
_E8_SWAP = IntMatrix([[int(j == ((i + 8) % 16 if i < 16 else i)) for j in range(21)] for i in range(21)])


def _extension_system(d):
    """extend_isometry's block-sparse 28×28 system (m, b), for the swap of
    the two E8(-1) blocks of Lambda2d(d)."""
    E = build_iota2d(d)
    comp = orthogonal_complement(E)
    return E.basis.stack(comp.basis), (_E8_SWAP @ E.basis).stack(comp.basis)


class TestBareissKernel:
    @ORACLE
    @given(st.one_of(zero_leading_pivots(), dense_or_block_sparse(max_rank=12)), st.data())
    def test_solve_rational(self, m, data):
        assume(_to_domain(m, ZZ).det() != 0)
        _assert_solves(m, data.draw(right_hand_sides(m.nrows)))

    @pytest.mark.parametrize("d", [1, 2, 37, 1000])
    def test_k3_extension_system(self, d):
        _assert_solves(*_extension_system(d))

    def test_empty_and_zero_right_hand_sides(self):
        empty = IntMatrix([], ncols=2)
        assert solve_rational(IntMatrix([], ncols=0), empty)._numerators() == (empty, 1)
        m = IntMatrix([[0, 2, 1], [3, 0, 0], [1, 1, 0]])
        assert solve_rational(m, IntMatrix.zero(3, 2))._numerators() == (IntMatrix.zero(3, 2), 1)
        _assert_solves(m, IntMatrix([[0, 5], [0, -1], [0, 7]]))

    def test_refusals(self):
        with pytest.raises(SingularMatrix):
            solve_rational(IntMatrix([[0, 1], [0, 2]]), IntMatrix([[1], [1]]))
        with pytest.raises(NonSquare):
            solve_rational(IntMatrix([[1, 2]]), IntMatrix([[1]]))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(possibly_singular(), symmetric_matrices(entries=st.integers(-BIG, BIG), zero_diagonal=True)))
    def test_symmetric_det_against_sympy(self, m):
        # det_exact shares the step, so it is no independent oracle for Lattice.det
        assert _det_and_inertia(m)[0] == int(_to_domain(m, ZZ).det())


# ---------------------------------------------------------------------------
# eliminations that skip the rows their callers never read: deferred Bareiss
# rescales, unit rows solved outright, clean Smith columns and an
# echelon-only first Hermite pass
# ---------------------------------------------------------------------------

def _seeded_dense(seed, n=8, zero_block=3):
    """A non-singular dense n×n matrix, entries in -9..9 and about a third of
    them zero, whose leading zero_block² block is zero: the forward pass
    swaps, and rows with a zero lead wait under an older pivot."""
    rng = random.Random(seed)
    while True:
        m = IntMatrix([
            [0 if i < zero_block and j < zero_block else rng.choice((0, rng.randint(-9, 9), rng.randint(-9, 9)))
             for j in range(n)]
            for i in range(n)
        ])
        if _to_domain(m, ZZ).det() != 0:
            return m


def _seeded_gram(seed, n=8):
    """A non-degenerate symmetric n×n matrix with about half its entries and
    a third of its diagonal zero, so pivots vanish and rows wait."""
    rng = random.Random(seed)
    while True:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.choice((0, 0, rng.randint(-5, 5))) if i != j else rng.choice((0, 2, -3))
        g = IntMatrix(a)
        if _to_domain(g, ZZ).det() != 0:
            return g


def _rescale_calls(run) -> list[tuple[int, int]]:
    """Run ``run()`` with the Bareiss rescale watched; one (num, den) pair
    per row brought up to date."""
    calls = []
    rescale = linalg._rescale

    def watched(row, k, num, den):
        calls.append((num, den))
        rescale(row, k, num, den)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_rescale", watched)
        run()
    return calls


def _forward_pass_rows(run) -> list[int]:
    """Run ``run()`` with the forward pass watched; the row count of each pass."""
    rows = []
    forward = linalg._forward_pass

    def watched(a):
        rows.append(len(a))
        return forward(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_forward_pass", watched)
        run()
    return rows


def _polarization(d):
    # v = e + d·f in the first hyperbolic plane of LambdaK3
    v = [0] * 22
    v[16], v[17] = 1, d
    return v


@st.composite
def unit_row_systems(draw, max_rank=10):
    """A square m with no, some or all rows ±e_j on distinct columns, in
    random rows and columns; the other rows dense, entries large or small."""
    n = draw(st.integers(1, max_rank))
    units = draw(st.sampled_from((0, n, draw(st.integers(0, n)))))
    entry = st.integers(-BIG, BIG) if draw(st.booleans()) else st.integers(-3, 3)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    at, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    for i, j in zip(at[:units], cols[:units]):
        rows[i] = [0] * n
        rows[i][j] = draw(st.sampled_from((1, -1)))
    return IntMatrix(rows)


@st.composite
def permuted_block_grams(draw):
    """A non-degenerate block-diagonal symmetric matrix, blocks of rank ≤ 4,
    under a random simultaneous permutation of rows and columns."""
    blocks = draw(st.lists(symmetric_grams(max_rank=4, entries=st.integers(-9, 9), zero_diagonal=True),
                           min_size=1, max_size=5))
    g = block_diag(*blocks)
    perm = draw(st.permutations(range(g.nrows)))
    return IntMatrix([[g[i][j] for j in perm] for i in perm])


@st.composite
def mixed_column_steps(draw):
    """A matrix whose smallest nonzero entry p is at (0, 0), the first in
    scan order, and whose first row mixes multiples of p with entries p
    does not divide, in a drawn order; rows below are zero in column 0, so
    the Smith form starts with column steps that find the column clean."""
    p = draw(st.integers(2, 5))
    r, c = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    big = st.one_of(st.just(0), st.integers(p, 40), st.integers(-40, -p))
    first = [p] + [draw(st.one_of(st.integers(-8, 8).map(lambda k: k * p), big)) for _ in range(c - 1)]
    below = [[0] + [draw(big) for _ in range(c - 1)] for _ in range(r - 1)]
    return IntMatrix([first, *below])


def _assert_det_and_inertia(g):
    # det against sympy and, for a non-degenerate g, inertia against the Fraction reduction
    det, plus, minus = _det_and_inertia(g)
    assert det == int(_to_domain(g, ZZ).det())
    if det:
        assert Signature(plus, minus) == _fraction_signature(g)


def _textbook_forward_pass(a) -> list[list[int]]:
    """Bareiss (1968) as first published, the oracle for ``_forward_pass``:
    every row below the pivot is rewritten at every step, a row with a zero
    lead times p/prev, and a zero pivot is swapped for the first row below
    with a nonzero lead.  Returns the pivot rows a[k][k:] of the steps it
    takes; it stops at a column with no nonzero lead."""
    a = [list(row) for row in a]
    n, prev, pivot_rows = len(a), 1, []
    for k in range(n):
        if a[k][k] == 0:
            swap = next((s for s in range(k + 1, n) if a[s][k]), None)
            if swap is None:
                break
            a[k], a[swap] = a[swap], a[k]
        p = a[k][k]
        for s in range(k + 1, n):
            c = a[s][k]
            a[s][k + 1 :] = [(p * x - c * y) // prev for x, y in zip(a[s][k + 1 :], a[k][k + 1 :])]
        pivot_rows.append(a[k][k:])
        prev = p
    return pivot_rows


def _textbook_symmetric_elimination(a) -> list[list[int]]:
    """The oracle for ``_symmetric_elimination``: the same zero-pivot
    congruence, with every row below the pivot rewritten at every step.
    Returns the pivot rows a[k][k:]; a zero row ends it."""
    a = [list(row) for row in a]
    n, prev = len(a), 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((t for t in range(k + 1, n) if a[k][t]), None)
            if j is None:
                return [a[i][i:] for i in range(k)]
            c = -1 if 2 * a[k][j] + a[j][j] == 0 else 1
            a[k][k:] = [x + c * y for x, y in zip(a[k][k:], a[j][k:])]
            for s in range(k, n):
                a[s][k] += c * a[s][j]
        p = a[k][k]
        for s in range(k + 1, n):
            c = a[s][k]
            a[s][k + 1 :] = [(p * x - c * y) // prev for x, y in zip(a[s][k + 1 :], a[k][k + 1 :])]
        prev = p
    return [a[i][i:] for i in range(n)]


_SPARSE_ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -3))


@st.composite
def forward_pass_inputs(draw):
    """Rows [m | b] of a solve: m square with zero leading pivots, singular,
    block-diagonal or sparse, so rows swap and wait; b of 0 to 2 columns."""
    m = draw(st.one_of(
        zero_leading_pivots(),
        possibly_singular(),
        dense_or_block_sparse(max_rank=8, entries=_SPARSE_ENTRIES),
        symmetric_matrices(max_rank=8, entries=_SPARSE_ENTRIES, zero_diagonal=True),
    ))
    k = draw(st.integers(0, 2))
    return [list(row) + [draw(st.integers(-9, 9)) for _ in range(k)] for row in m]


class TestDeferredRescale:
    """A row whose lead is zero keeps the pivot it was last written under
    and is rescaled when it is next used; det, inertia and the solution are
    unique, so they must not change."""

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_systems(self, seed):
        m = _seeded_dense(seed)
        rng = random.Random(-seed)
        b = IntMatrix([[rng.randint(-BIG, BIG) for _ in range(3)] for _ in range(m.nrows)])
        _assert_solves(m, b)
        assert det_exact(m) == int(_to_domain(m, ZZ).det())
        assert _rescale_calls(lambda: det_exact(m))  # rows did wait

    @pytest.mark.parametrize(
        "rows",
        [
            [[5, 0, 0, 0, 0, 5], [0, -4, 0, 5, 0, -4], [0, 0, 4, 0, 0, 1], [0, 2, 0, 0, 0, -5], [0, 0, 3, 0, 0, 0],
             [-1, 0, 0, 0, 1, 5]],
            [[0, 0, -1, 0, 3, 0], [-4, 0, 0, 0, 5, 0], [-1, 0, 0, 1, 1, 2], [0, 0, 1, 3, 0, 0], [2, 0, -5, -5, 3, 0],
             [0, -5, 0, 0, 0, -5]],
            [[4, 0, 1, 0, 0, 0], [4, 0, 0, 0, 2, 0], [0, 0, 4, -2, 0, -5], [0, -3, 0, 2, 0, 5], [2, 0, -5, 0, 0, 0],
             [0, 0, -5, -5, 4, -1]],
        ],
    )
    def test_swapped_rows_keep_their_frames(self, rows):
        # a zero pivot swaps a waiting row down and an up-to-date row up
        m = IntMatrix(rows)
        _assert_solves(m, IntMatrix([[5], [-3], [4], [3], [-3], [1]]))
        assert det_exact(m) == int(_to_domain(m, ZZ).det())

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_grams(self, seed):
        _assert_det_and_inertia(_seeded_gram(seed))

    @pytest.mark.parametrize(
        "gram",
        [
            [[2, 2, 0], [2, 2, 1], [0, 1, 1]],
            [[3, 3, 0, 1], [3, 3, 2, 0], [0, 2, 0, 5], [1, 0, 5, 4]],
            [[-2, 4, 0, 0], [4, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]],
            [[0, 0, 0, -3], [0, 0, -3, 0], [0, -3, 0, 0], [-3, 0, 0, 0]],
        ],
    )
    def test_congruence_mixes_a_deferred_row(self, gram):
        # pivot 0 leaves a row with a zero lead waiting; pivot 1 is then zero,
        # and its congruence mixes in that row, which must be brought up to date
        g = IntMatrix(gram)
        assert _rescale_calls(lambda: _det_and_inertia(g))
        _assert_det_and_inertia(g)

    @ORACLE
    @given(permuted_block_grams())
    def test_permuted_block_grams(self, g):
        _assert_det_and_inertia(g)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices(max_rank=6, entries=st.sampled_from((0, 0, 0, 1, -1, 2, -3)), zero_diagonal=True))
    def test_sparse_grams_with_zero_pivots(self, g):
        _assert_det_and_inertia(g)

    @settings(max_examples=300, deadline=None)
    @given(forward_pass_inputs())
    def test_forward_pass_against_textbook_bareiss(self, rows):
        a = [list(row) for row in rows]
        det = linalg._forward_pass(a)
        expected = _textbook_forward_pass(rows)
        assert [a[k][k:] for k in range(len(expected))] == expected
        assert (det == 0) == (len(expected) < len(rows))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        possibly_singular(),
        symmetric_matrices(max_rank=8, entries=_SPARSE_ENTRIES, zero_diagonal=True),
        permuted_block_grams(),
    ))
    def test_symmetric_elimination_against_textbook_bareiss(self, g):
        a = linalg._symmetric_elimination(g)
        assert [row[k:] for k, row in enumerate(a)] == _textbook_symmetric_elimination(g.tolist())


class TestUnitRows:
    """The solve core fixes x_j = ±b_i for each row ±e_j and runs Bareiss on
    the rest only."""

    @ORACLE
    @given(unit_row_systems(), st.data())
    def test_against_sympy(self, m, data):
        assume(_to_domain(m, ZZ).det() != 0)
        _assert_solves(m, data.draw(right_hand_sides(m.nrows)))

    def test_signed_permutations(self):
        perm, signs = [3, 0, 4, 1, 2], [1, -1, -1, 1, -1]
        m = IntMatrix([[signs[i] * int(j == perm[i]) for j in range(5)] for i in range(5)])
        b = IntMatrix([[i + 1, -7 * i] for i in range(5)])
        assert _forward_pass_rows(lambda: _assert_solves(m, b)) == [0]
        expected = [None] * 5
        for i in range(5):  # row i of m is signs[i]·e_perm[i]
            expected[perm[i]] = [signs[i] * v for v in b[i]]
        assert solve_rational(m, b)._numerators() == (IntMatrix(expected), 1)

    def test_mixed_with_dense_rows(self):
        m = IntMatrix([[0, -1, 0, 0], [2, 5, 3, -1], [0, 0, 0, 1], [4, -3, 7, 2]])
        b = IntMatrix([[5], [1], [-2], [9]])
        assert _forward_pass_rows(lambda: _assert_solves(m, b)) == [2]

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0, 0], [0, 0, -1], [0, 0, 1]],
            [[0, -1, 0], [3, 1, 2], [0, 1, 0]],
            [[0, 0, 0, 1], [1, 2, 3, 4], [0, 0, 0, -1], [5, 6, 7, 9]],
        ],
    )
    def test_two_unit_rows_on_one_column_are_singular(self, rows):
        with pytest.raises(SingularMatrix):
            solve_rational(IntMatrix(rows), IntMatrix([[1]] * len(rows)))


class TestSolveCore:
    """solve_rational's core gives the unknowns that unit rows fix unscaled;
    solve_rational reduces only the eliminated ones, and its stored pair is
    the one ``_over`` gives sympy's fraction-free solve."""

    @ORACLE
    @given(unit_row_systems(), st.data())
    def test_solve_rational_is_the_reduced_integral_solve(self, m, data):
        b = data.draw(right_hand_sides(m.nrows))
        rhs = RatMatrix._over(b, data.draw(st.integers(2, 60))) if data.draw(st.booleans()) else b
        num, den_b = rhs._numerators() if isinstance(rhs, RatMatrix) else (rhs, 1)
        if _to_domain(m, ZZ).det() == 0:
            with pytest.raises(SingularMatrix):
                solve_rational(m, rhs)
            return
        assert solve_rational(m, rhs)._numerators() == _sympy_solve(m, num, den_b)._numerators()

    @pytest.mark.parametrize("d", [1, 2, 37, 1000])
    def test_k3_extension_system(self, d):
        m, b = _extension_system(d)
        for rhs, den_b in ((b, 1), (RatMatrix._over(b, 2 * d + 1), 2 * d + 1)):
            assert solve_rational(m, rhs)._numerators() == _sympy_solve(m, b, den_b)._numerators()

    @pytest.mark.parametrize(
        "rows, b, expected",
        [
            # x_1 = -3 fixed; den = 2 and X' = (4,) reduce by g = 2 to an integral solution
            ([[0, -1], [2, 0]], [[3], [4]], [[2], [-3]]),
            # den = 6 and X' = (3, 1) share no factor: the fixed x_0 = 5 is scaled by 6
            ([[1, 0, 0], [0, 2, 0], [0, 1, 3]], [[5], [1], [1]], [[5], [Fraction(1, 2)], [Fraction(1, 6)]]),
            # den = 4, X' = (2,): g = 2, and the fixed x_1 = -7 is scaled by den/g = 2
            ([[4, 0], [0, -1]], [[2], [7]], [[Fraction(1, 2)], [-7]]),
        ],
    )
    def test_fixed_rows_join_the_reduced_denominator(self, rows, b, expected):
        # RatMatrix's public constructor finds the least common denominator on its own
        assert solve_rational(IntMatrix(rows), IntMatrix(b))._numerators() == RatMatrix(expected)._numerators()

    @pytest.mark.parametrize(
        "b",
        [
            # on the eliminated rows 0 and 1, once the fixed x_2 = (1, 0, 0, 0)
            # is substituted into row 0: column 0 is live in row 0 only, and so
            # is column 1; column 3 is live in row 1 only, and column 2 is zero
            [[0, 5, 0, 0], [0, 0, 0, 7], [1, 0, 0, 0]],
            # column 0 is live in b, and zero once x_2 is substituted
            [[1, 5, 0, 0], [0, 0, 0, 7], [1, 0, 0, 0]],
        ],
    )
    def test_zero_right_side_columns(self, b):
        m = IntMatrix([[2, 1, 1], [1, 3, 0], [0, 0, 1]])  # row 2 fixes x_2
        _assert_solves(m, IntMatrix(b))
        x = solve_rational(m, IntMatrix(b))
        assert (RatMatrix._over(m, 1) @ x) == RatMatrix(b)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0, 0], [0, 0, -1], [0, 0, 1]],
            [[0, -1, 0], [3, 1, 2], [0, 1, 0]],
            [[1, 0, 0], [0, 1, 2], [0, 2, 4]],
        ],
    )
    def test_singular_refusals(self, rows):
        for rhs in (IntMatrix([[1]] * 3), RatMatrix([[Fraction(1, 3)]] * 3)):
            with pytest.raises(SingularMatrix):
                solve_rational(IntMatrix(rows), rhs)


class TestCleanSmithColumns:
    """A Smith column step whose entry the pivot divides changes only the
    pivot row while the pivot column is clean; a gcd column step dirties it."""

    @settings(max_examples=100, deadline=None)
    @given(mixed_column_steps())
    def test_mixed_column_steps(self, m):
        _assert_smith(m)
        _assert_smith(m.transpose())

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 3, 4], [0, 5, 0], [0, 0, 7]],  # a gcd step, then a divisible one on a dirty column
            [[2, 4, 3], [0, 6, 5], [0, 9, 4]],  # a divisible step, then a gcd step
            [[3, 6, 4, 9], [0, 5, 0, 7], [0, 8, 6, 0]],
        ],
    )
    def test_gcd_and_divisible_steps(self, rows):
        _assert_smith(IntMatrix(rows))


class TestEchelonOnlyHermitePass:
    """kernel_basis's first Hermite pass stops at an echelon form."""

    @settings(max_examples=100, deadline=None)
    @given(small_or_rank_deficient())
    def test_rank_deficient_kernels(self, m):
        K = kernel_basis(m)
        rank = Matrix(m.tolist()).rank()
        assert K.nrows == m.nrows - rank and K.ncols == m.nrows
        assert all(x == 0 for row in K @ m for x in row)
        assert hermite_normal_form(K)[0] == K  # normalised, so unique
        if K.nrows:  # primitive: its rows span every integer vector of its rational span
            _, S, _ = smith_normal_form(K)
            assert all(S[i][i] == 1 for i in range(K.nrows))

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2], [2, 4], [3, 6], [-1, 5]],
            [[6, 4, 2], [3, 2, 1], [0, 0, 0], [9, 6, 3], [1, 1, 1]],
        ],
    )
    def test_kernels_are_normalised(self, rows):
        m = IntMatrix(rows)
        K = kernel_basis(m)
        assert hermite_normal_form(K)[0] == K
        assert all(x == 0 for row in K @ m for x in row)


@st.composite
def kernel_split_matrices(draw, max_rows=10, max_cols=4):
    """An r×c matrix, mostly taller than wide: zero rows, rows ±e_j, rows
    repeating an earlier one (sign flipped or not), rows of ±1 and 0, and
    dense rows."""
    r, c = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    rows = []
    for _ in range(r):
        kind, row = draw(st.sampled_from(("zero", "zero", "unit", "repeat", "signs", "dense"))), [0] * c
        if kind == "repeat" and rows:
            row = [draw(st.sampled_from((1, -1))) * x for x in draw(st.sampled_from(rows))]
        elif kind in ("unit", "repeat") and c:
            row[draw(st.integers(0, c - 1))] = draw(st.sampled_from((1, -1)))
        elif kind == "signs":
            row = [draw(st.integers(-1, 1)) for _ in range(c)]
        elif kind == "dense":
            row = [draw(st.integers(-4, 4)) for _ in range(c)]
        rows.append(row)
    return IntMatrix(rows, ncols=c)


def _unsplit_kernel(m: IntMatrix) -> IntMatrix:
    # both Hermite passes on every row of m, zero rows included
    H, T = linalg._hnf(m.tolist(), m.ncols, True, echelon_only=True)
    rank = sum(1 for row in H if any(row))
    return IntMatrix(linalg._hnf(T[rank:], m.nrows, False)[0], ncols=m.nrows)


def _assert_row_hnf(K: IntMatrix) -> None:
    # pivots positive and moving right, zeros left of each pivot, the
    # entries above a pivot in [0, pivot)
    last = -1
    for i, row in enumerate(K):
        pivot = next(j for j, x in enumerate(row) if x)
        assert pivot > last and row[pivot] > 0
        assert all(0 <= K[k][pivot] < row[pivot] for k in range(i))
        last = pivot


class TestKernelSplitsOffZeroRows:
    """kernel_basis splits off the zero rows of m, each a unit vector of the
    kernel, and runs its Hermite passes on the other rows."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_split_matrices())
    @example(m=IntMatrix([[0], [3], [0], [0], [-5], [0]]))
    @example(m=IntMatrix([[0, 1], [0, 0], [0, -1], [1, 0], [0, 0]]))
    def test_equals_the_unsplit_passes(self, m):
        K = kernel_basis(m)
        assert K == _unsplit_kernel(m)
        assert all(x == 0 for row in K @ m for x in row)
        assert K.nrows == m.nrows - (Matrix(m.tolist()).rank() if m.nrows and m.ncols else 0)
        if K.nrows:  # saturated: every invariant factor is 1 (sympy)
            S, _, _ = smith_normal_decomp(Matrix(K.tolist()), domain=ZZ)
            assert all(S[i, i] == 1 for i in range(K.nrows))
        _assert_row_hnf(K)

    @pytest.mark.parametrize("d", [1, 7, 1000])
    def test_polarization_passes_run_on_the_nonzero_rows(self, d, monkeypatch):
        v = [0] * 22
        v[16], v[17] = 1, d  # e + d·f in the first hyperbolic plane of LambdaK3
        m = (IntMatrix([v]) @ standard("LambdaK3").gram).transpose()
        hnf, shapes = linalg._hnf, []

        def watched(rows, ncols, *args, **kwargs):
            shapes.append((len(rows), ncols))
            return hnf(rows, ncols, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_hnf", watched)
            K = kernel_basis(m)
        assert shapes == [(2, 1), (1, 2)]
        assert K == _unsplit_kernel(m)
        expected = [[int(i == j) for i in range(22)] for j in range(22) if j not in (16, 17)]
        expected.insert(16, [0] * 16 + [1, -d] + [0] * 4)
        assert K.tolist() == expected


def _scanned(m: IntMatrix) -> list:
    # the sparse rows a scan of every entry gives
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


class TestCarriedSparseRows:
    """The matrices whose builders know their nonzero entries carry their
    sparse rows from construction; they must be the rows a scan finds."""

    def test_lambda2d_grams(self):
        for d in range(1, 1001):
            g = standard("Lambda2d", d).gram
            assert g._sparse is not None and g._sparse == _scanned(g)

    def test_iota2d_bases_and_complements(self):
        for d in range(1, 1001):
            E = build_iota2d(d)
            for m in (E.basis, E._complement.basis):
                assert m._sparse is not None and m._sparse == _scanned(m)

    @settings(max_examples=200, deadline=None)
    @given(kernel_split_matrices())
    @example(m=IntMatrix([[0], [3], [0], [0], [-5], [0]]))
    def test_kernel_basis_outputs(self, m):
        K = kernel_basis(m)
        assert K._sparse is not None and K._sparse == _scanned(K)


_UNIMODULAR_AMBIENTS = ("U^3", "E8", "LambdaK3", "LambdaSharp")


@st.composite
def unimodular_sublattices(draw):
    """Independent rows, rank 0 to 4, in U³, E8, LambdaK3 or LambdaSharp:
    mostly zeros and small entries, so isotropic and degenerate
    restrictions occur."""
    ambient = evaluate_expr(draw(st.sampled_from(_UNIMODULAR_AMBIENTS)))
    n = ambient.rank
    entries = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4))
    basis = IntMatrix(rows, ncols=n)
    assume(det_exact(basis @ basis.transpose()) != 0)
    return SublatticeEmbedding(ambient, basis)


class TestComplementFromItsSource:
    """In a unimodular ambient, as_lattice of a complement C = S^⊥ of
    higher rank than S reads det C = det L·det S/[S_sat:S]² and
    sig C = sig L − sig S off the basis of S; the elimination of C's Gram
    is the oracle."""

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow]
    )
    @given(unimodular_sublattices())
    def test_against_the_elimination(self, S):
        C = orthogonal_complement(S)
        det, plus, minus = _det_and_inertia(induced_gram(C))
        # the elimination of the smaller Gram: S's, read off, or C's own
        expected = [S.rank] if S.rank < C.rank else [C.rank]
        rows = []
        with pytest.MonkeyPatch.context() as mp:
            elimination = quadlat.lattice._det_and_inertia
            mp.setattr(quadlat.lattice, "_det_and_inertia", lambda m: rows.append(m.nrows) or elimination(m))
            if det == 0:
                with pytest.raises(Degenerate):
                    as_lattice(C)
                assert rows == expected  # S is degenerate exactly when C is
                return
            L = as_lattice(C)
        assert rows == expected
        assert (L.det, signature(L)) == (det, Signature(plus, minus))
        assert L.gram == induced_gram(C)

    @pytest.mark.parametrize("d", [1, 2, 37, 1000])
    def test_k3_complements(self, d):
        S = SublatticeEmbedding(standard("LambdaK3"), IntMatrix([_polarization(d)]))
        for C in (orthogonal_complement(S), orthogonal_complement(build_iota2d(d))):
            L = as_lattice(C)
            det, plus, minus = _det_and_inertia(L.gram)
            assert (L.det, signature(L)) == (det, Signature(plus, minus))

    @pytest.mark.parametrize("d", [1, 37, 1000])
    def test_a_source_of_higher_rank_is_not_kept(self, eliminations, d):
        S = SublatticeEmbedding(standard("LambdaK3"), IntMatrix([_polarization(d)]))
        P = orthogonal_complement(S)
        assert P._source == S.basis  # rank 1 against 21
        C = orthogonal_complement(P)
        assert C._source is None  # rank 21 against 1
        eliminations.clear()
        L = as_lattice(C)
        assert eliminations == [1]  # C's own Gram [2d], not P's rank-21 one
        assert (L.det, signature(L)) == (2 * d, Signature(1, 0))

    def test_non_unimodular_ambient_runs_the_elimination(self, eliminations):
        S = SublatticeEmbedding(make_lattice([[2, 0, 0], [0, 3, 0], [0, 0, 5]]), IntMatrix([[1, 0, 0]]))
        eliminations.clear()
        L = as_lattice(orthogonal_complement(S))
        assert eliminations == [2] and (L.det, signature(L)) == (15, Signature(2, 0))

    def test_complement_det_exactness_is_checked(self, monkeypatch):
        S = SublatticeEmbedding(standard("LambdaK3"), IntMatrix([_polarization(1)]))
        monkeypatch.setattr(quadlat.embeddings, "saturation_index", lambda E: 2)  # -1·2 over 2² is no integer
        with pytest.raises(InvariantViolation, match="complement det"):
            as_lattice(orthogonal_complement(S))


class TestEliminationWork:
    """Work counts of the eliminations, taken with hooks on the rescale and
    the forward pass."""

    def test_sparse_grams_rescale_each_row_at_most_once(self):
        # the inputs the deferred rescale serves: An(n), whose rows wait
        # under pivot 1 until their one update, and block-diagonal Grams of
        # zero-diagonal blocks, whose congruences bring waiting rows up to date
        an = _rescale_calls(lambda: standard("An", 200))
        assert len(an) <= 200  # 0: no row is behind when it is next used
        g = block_diag(*[IntMatrix([[0, 2], [2, 0]])] * 100)
        blocks = _rescale_calls(lambda: make_lattice(g))
        assert len(blocks) <= 200  # 198

    @pytest.mark.parametrize("d", [1, 37, 1000])
    def test_extension_system_runs_bareiss_on_at_most_five_rows(self, d):
        m, b = _extension_system(d)
        rows = _forward_pass_rows(lambda: solve_rational(m, b))
        assert len(rows) == 1 and rows[0] <= 5  # of 28


_PRIMES_TO_101 = [p for p in range(2, 102) if all(p % q for q in range(2, p))]


def _gf(rows, ncols, p) -> DomainMatrix:
    F = GF(p)
    return DomainMatrix([[F(x) for x in row] for row in rows], (len(rows), ncols), F)


@st.composite
def generator_sets(draw, p, dim):
    """Generators mod p: signed permutations and unipotent matrices, whose
    fixed spaces are often nontrivial, and dense ones."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("permutation", "unipotent", "dense")))
        if kind == "permutation":
            perm = draw(st.permutations(range(dim)))
            sign = st.sampled_from((1, 1, 1, -1))
            gens.append([[draw(sign) if perm[i] == j else 0 for j in range(dim)] for i in range(dim)])
        elif kind == "unipotent":
            gens.append([[1 if i == j else draw(st.integers(-p, p)) if j > i else 0 for j in range(dim)]
                         for i in range(dim)])
        else:
            gens.append(draw(_square_block(dim, st.integers(-3 * p, 3 * p))))
    return gens


class TestBrauerModEll:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fixed_space_against_nullspace(self, data):
        p = data.draw(st.sampled_from(_PRIMES_TO_101))
        dim = data.draw(st.integers(1, 8))
        gens = data.draw(generator_sets(p, dim))
        assume(all(_gf(g, dim, p).det() != 0 for g in gens))
        d, basis = fixed_subspace_mod_ell(FiniteMatrixGroupModL(p, dim, tuple(gens)))
        # x·(g - id) = 0 for every g: the nullspace of the stacked (g - id)ᵀ
        stacked = [[g[i][j] - (i == j) for i in range(dim)] for g in gens for j in range(dim)]
        expected = _gf(stacked, dim, p).nullspace()
        assert d == basis.nrows == expected.shape[0]
        assert all(0 <= x < p for row in basis for x in row)
        assert _gf(basis.tolist(), dim, p).rref()[0] == expected.rref()[0]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_not_invertible_exactly_when_det_vanishes(self, data):
        p = data.draw(st.sampled_from(_PRIMES_TO_101))
        dim = data.draw(st.integers(1, 8))
        g = data.draw(_square_block(dim, st.integers(-1, 1) if data.draw(st.booleans()) else st.integers(-p, p)))
        singular = _gf(g, dim, p).det() == 0
        try:
            FiniteMatrixGroupModL(p, dim, (g,))
        except NotInvertible:
            assert singular
        else:
            assert not singular

    # every (n, ell) with ell^(n²) <= 2·10^6, except that n = 1 stops below 100
    SCANS = [(1, ell) for ell in _PRIMES_TO_101 if ell < 100] + [
        (n, ell) for n in (2, 3, 4) for ell in _PRIMES_TO_101 if ell ** (n * n) <= 2 * 10**6
    ]

    @pytest.mark.parametrize("n, ell", SCANS)
    def test_special_linear_order(self, n, ell):
        order = ell ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            order *= ell**i - 1
        assert brute_force_points("special_linear", n, ell) == order

    @pytest.mark.parametrize("n, ell", [(n, ell) for n, ell in SCANS if n % 2 == 0])
    def test_symplectic_order(self, n, ell):
        m = n // 2
        order = ell ** (m * m)
        for i in range(1, m + 1):
            order *= ell ** (2 * i) - 1
        assert brute_force_points("symplectic", n, ell) == order

    @pytest.mark.parametrize("ell", [ell for n, ell in SCANS if n == 2])
    def test_orthogonal_group_of_U(self, ell):
        # for odd ell, O(U) is the diagonal torus and its swap: 2(ell - 1)
        # points; mod 2 the form of U is alternating, so O(U) = Sp_2 = SL_2
        expected = 2 * (ell - 1) if ell > 2 else 6
        assert brute_force_points("orthogonal", 2, ell, of=standard("U")) == expected
