import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlat.errors import BadParameter, NotInvertible, NotSaturated, TooLarge
from quadlat.lattice import make_lattice, standard
from quadlat.linalg import IntMatrix, smith_normal_form
from quadlat.embeddings import SublatticeEmbedding
from quadlat.expr import evaluate_expr
from quadlat.brauer import (
    PRIME_TEST_BOUND,
    CohomologyPair,
    FiniteMatrixGroupModL,
    brauer_torsion_order,
    brute_force_points,
    fixed_subspace_mod_ell,
    minkowski_bound,
    nori_sandwich_check,
    quotient_structure,
    _check_prime,
)

H2 = make_lattice([[0, 1], [1, 0]])


def span_rows(H, rows):
    return CohomologyPair(H, SublatticeEmbedding(H, IntMatrix(rows, ncols=H.rank)))


def _leibniz_det(g):
    n = len(g)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(g[i][perm[i]] for i in range(n))
    return total


def _matrices(n, ell):
    for entries in itertools.product(range(ell), repeat=n * n):
        yield [entries[i * n : (i + 1) * n] for i in range(n)]


def _invertible_isometries(gram, ell):
    # the g in GL_n(F_ell) with gᵀ·F·g ≡ F (mod ell), by a scan of plain
    # lists: det by the Leibniz formula, the form entry by entry
    n = len(gram)
    count = 0
    for g in _matrices(n, ell):
        if _leibniz_det(g) % ell and all(
            (sum(g[k][i] * gram[k][l] * g[l][j] for k in range(n) for l in range(n)) - gram[i][j]) % ell == 0
            for i in range(n)
            for j in range(n)
        ):
            count += 1
    return count


def _special_linear_scan(n, ell):
    return sum(_leibniz_det(g) % ell == 1 for g in _matrices(n, ell))


def _symplectic_gram(n):
    h = n // 2
    return [[(j == i + h) - (i == j + h) for j in range(n)] for i in range(n)]


# every (n, ell) with ell^(n²) <= 10^4: n = 1 at the primes below 10^4,
# n = 2 at ell <= 7 and n = 3 at ell = 2
ORACLE_PRIMES = {
    n: [ell for ell in range(2, 10**4) if ell ** (n * n) <= 10**4 and all(ell % q for q in range(2, math.isqrt(ell) + 1))]
    for n in (1, 2, 3)
}
oracle_sizes = st.sampled_from((1, 2, 3)).flatmap(lambda n: st.tuples(st.just(n), st.sampled_from(ORACLE_PRIMES[n])))


@st.composite
def grams_mod_ell(draw):
    """(gram, ell): a symmetric integer Gram of rank 1–3 and a prime with
    ell^(n²) <= 10^4.  Mod ell it is arbitrary, zero, or of rank at most
    one; ell·m on the diagonal makes it non-degenerate over ℤ without
    changing it mod ell."""
    n, ell = draw(oracle_sizes)
    entries = st.integers(-3 * ell, 3 * ell)
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    a = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    kind = draw(st.sampled_from(("any", "zero", "rank one")))
    if kind == "zero":
        a = [[ell * x for x in row] for row in a]
    elif kind == "rank one":
        v = draw(st.lists(st.integers(-ell, ell), min_size=n, max_size=n))
        c = draw(entries)
        a = [[c * v[i] * v[j] + ell * a[i][j] for j in range(n)] for i in range(n)]
    m = 1 + max(sum(abs(x) for x in row) for row in a)
    return [[a[i][j] + ell * m * (i == j) for j in range(n)] for i in range(n)], ell


def k3_pair(rho):
    K3 = standard("LambdaK3")
    rows = [[1 if j == i else 0 for j in range(22)] for i in range(rho)]
    return span_rows(K3, rows)


class TestQuotientStructure:
    def test_saturated_line(self):
        assert quotient_structure(span_rows(H2, [[1, 0]])) == (1, ())

    def test_index_two_line(self):
        assert quotient_structure(span_rows(H2, [[2, 0]])) == (1, (2,))

    def test_full_sublattice(self):
        assert quotient_structure(span_rows(H2, [[1, 0], [0, 1]])) == (0, ())

    def test_no_algebraic_classes(self):
        for H in (H2, standard("LambdaK3")):
            P = CohomologyPair(H, SublatticeEmbedding(H, IntMatrix([], ncols=H.rank)))
            assert quotient_structure(P) == (H.rank, ())

    def test_algebraic_part_in_another_lattice_rejected(self):
        other = make_lattice([[0, 2], [2, 0]])
        with pytest.raises(BadParameter, match="embed into H"):
            CohomologyPair(H2, SublatticeEmbedding(other, IntMatrix([[1, 0]])))


class TestBrauerTorsionOrder:
    def test_paper_shape_rank_two(self):
        assert brauer_torsion_order(k3_pair(20), 2, 1) == 4

    def test_full_picard_rank_kills_torsion(self):
        assert brauer_torsion_order(k3_pair(22), 3, 2) == 1

    def test_rank_one_case_against_snf_oracle(self):
        # independent check: |H/(N + ell^n H)| via the Smith form of the
        # stacked relation matrix
        P = k3_pair(1)
        ell, n = 3, 2
        stacked = P.ns.basis.stack(IntMatrix.identity(22).scale(ell**n))
        _, S, _ = smith_normal_form(stacked)
        order = 1
        for i in range(22):
            order *= S[i][i]
        assert brauer_torsion_order(P, ell, n) == order == 3**42

    def test_ladder_ratio(self):
        for rho in (1, 7, 19):
            P = k3_pair(rho)
            for ell in (2, 5):
                for n in (1, 2):
                    ratio = brauer_torsion_order(P, ell, n + 1) // brauer_torsion_order(P, ell, n)
                    assert ratio == ell ** (22 - rho)

    def test_unsaturated_rejected(self):
        with pytest.raises(NotSaturated):
            brauer_torsion_order(span_rows(H2, [[2, 0]]), 2, 1)

    def test_bad_inputs(self):
        with pytest.raises(BadParameter):
            brauer_torsion_order(k3_pair(1), 4, 1)
        with pytest.raises(BadParameter):
            brauer_torsion_order(k3_pair(1), 2, 0)


class TestFixedSubspace:
    def test_no_generators_fix_everything(self):
        for dim in (0, 1, 4):
            S = FiniteMatrixGroupModL(7, dim, ())
            assert fixed_subspace_mod_ell(S) == (dim, IntMatrix.identity(dim))

    def test_identity_fixes_everything(self):
        S = FiniteMatrixGroupModL(3, 2, (IntMatrix.identity(2),))
        dim, basis = fixed_subspace_mod_ell(S)
        assert dim == 2 and basis == IntMatrix.identity(2)

    def test_negation_fixes_nothing(self):
        S = FiniteMatrixGroupModL(3, 2, ([[-1, 0], [0, -1]],))
        assert fixed_subspace_mod_ell(S)[0] == 0

    def test_hyperbolic_swap_mod_five(self):
        S = FiniteMatrixGroupModL(5, 2, ([[0, 1], [1, 0]],))
        dim, basis = fixed_subspace_mod_ell(S)
        assert dim == 1 and basis.tolist() == [[1, 1]]

    def test_monotone_under_more_generators(self):
        g1 = [[0, 1], [1, 0]]
        g2 = [[-1, 0], [0, -1]]
        d1 = fixed_subspace_mod_ell(FiniteMatrixGroupModL(7, 2, (g1,)))[0]
        d2 = fixed_subspace_mod_ell(FiniteMatrixGroupModL(7, 2, (g1, g2)))[0]
        d0 = fixed_subspace_mod_ell(FiniteMatrixGroupModL(7, 2, ()))[0]
        assert d0 >= d1 >= d2

    def test_singular_generator_rejected(self):
        with pytest.raises(NotInvertible):
            FiniteMatrixGroupModL(3, 2, ([[3, 0], [0, 1]],))

    def test_composite_modulus_rejected(self):
        with pytest.raises(BadParameter):
            FiniteMatrixGroupModL(6, 2, ())


class TestMinkowskiBound:
    def test_hand_values(self):
        assert minkowski_bound(1) == 2
        assert minkowski_bound(2) == 24
        assert minkowski_bound(3) == 48
        assert minkowski_bound(4) == 5760

    def test_signed_permutation_group_divides(self):
        for n in range(1, 5):
            assert minkowski_bound(n) % (2**n * math.factorial(n)) == 0

    def test_monotone_divisibility(self):
        for n in range(1, 8):
            assert minkowski_bound(n + 1) % minkowski_bound(n) == 0

    def test_bad_input(self):
        with pytest.raises(BadParameter):
            minkowski_bound(0)

    def test_rank_cap(self):
        assert minkowski_bound(1000) % minkowski_bound(999) == 0
        with pytest.raises(TooLarge, match="1001"):
            minkowski_bound(1001)


# ψ_k: the least strong pseudoprime to all of the first k prime bases
PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071250001, 3825123056546413051, 318665857834031151167461)


def _is_prime(ell):
    try:
        _check_prime(ell)
    except BadParameter:
        return False
    return True


class TestPrimalityTest:
    """Trial division by the primes below 1000, then Miller–Rabin with the
    prime bases up to 41, exact below PRIME_TEST_BOUND = ψ₁₃."""

    def test_eighteen_digit_prime_is_quick(self):
        start = time.perf_counter()
        assert _is_prime(10**18 + 3)
        assert time.perf_counter() - start < 0.5

    def test_strong_pseudoprimes_are_composite(self):
        # ψ₁₂ passes every base up to 37 and fails 41
        for n in PSEUDOPRIMES:
            assert not _is_prime(n), n

    def test_bound_is_refused(self):
        with pytest.raises(TooLarge, match=str(PRIME_TEST_BOUND)):
            _check_prime(PRIME_TEST_BOUND)  # ψ₁₃: passes every base up to 41
        with pytest.raises(TooLarge):
            nori_sandwich_check(1, 0, 10**30 + 57)

    def test_small_factor_found_before_the_bound(self):
        with pytest.raises(BadParameter):
            _check_prime(10**400 + 1)  # 353 divides it

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(24)
        numbers = list(range(-2, 3000)) + list(PSEUDOPRIMES)
        numbers += [rng.randrange(2, 10 ** rng.randint(2, 24)) for _ in range(3000)]
        numbers += [sympy.randprime(10**6, 10**24) for _ in range(200)]
        numbers += [sympy.randprime(1000, 10**12) * sympy.randprime(1000, 10**12) for _ in range(200)]
        for n in numbers:
            assert _is_prime(n) == sympy.isprime(n), n


class TestNoriSandwich:
    def test_symplectic_example(self):
        assert nori_sandwich_check(120, 3, 5)

    def test_zero_dim(self):
        assert nori_sandwich_check(1, 0, 7)

    def test_negative_dim_rejected(self):
        with pytest.raises(BadParameter, match="dim"):
            nori_sandwich_check(1, -1, 7)

    def test_boundary_violation(self):
        ell, dim = 5, 2
        assert not nori_sandwich_check((ell + 1) ** dim + 1, dim, ell)
        assert nori_sandwich_check((ell + 1) ** dim, dim, ell)


class TestBruteForcePoints:
    def test_sl2_mod3(self):
        assert brute_force_points("special_linear", 2, 3) == 24

    def test_sp2_mod5(self):
        assert brute_force_points("symplectic", 2, 5) == 120

    def test_sl2_equals_sp2(self):
        for ell in (3, 5, 7):
            assert brute_force_points("special_linear", 2, ell) == brute_force_points(
                "symplectic", 2, ell
            )

    def test_orthogonal_of_hyperbolic_plane_mod3(self):
        # hand count: diag(a, a^{-1}) and antidiag(b, b^{-1}), a,b in {1,2}
        assert brute_force_points("orthogonal", 2, 3, of=standard("U")) == 4

    @pytest.mark.parametrize(
        "expr, ell, count",
        [
            ("U(2)", 2, 6),  # a form that vanishes mod 2: all of GL_2(F_2)
            ("An(2)", 3, 12),  # det 3
            ("An(3)", 2, 24),  # det 4
            ("An(1)", 2, 1),  # [2] is 0 mod 2, and only g = 1 is invertible
            ("gen(2)", 2, 1),
            ("U", 2, 6),  # non-degenerate: no singular g satisfies the form
            ("U", 3, 4),
            ("An(2)", 2, 6),
        ],
    )
    def test_orthogonal_counts_only_invertible_matrices(self, expr, ell, count):
        L = evaluate_expr(expr)
        expected = _invertible_isometries(L.gram.tolist(), ell)
        assert brute_force_points("orthogonal", L.rank, ell, of=L) == expected
        assert expected == count

    @settings(max_examples=80, deadline=None)
    @given(grams_mod_ell())
    def test_orthogonal_against_scan(self, gram_and_ell):
        gram, ell = gram_and_ell
        L = make_lattice(gram)
        assert brute_force_points("orthogonal", L.rank, ell, of=L) == _invertible_isometries(gram, ell)

    @settings(max_examples=40, deadline=None)
    @given(oracle_sizes)
    def test_special_linear_and_symplectic_against_scan(self, size):
        n, ell = size
        assert brute_force_points("special_linear", n, ell) == _special_linear_scan(n, ell)
        if n % 2 == 0:
            assert brute_force_points("symplectic", n, ell) == _invertible_isometries(_symplectic_gram(n), ell)

    def test_special_linear_of_size_one_is_immediate(self):
        start = time.perf_counter()
        assert brute_force_points("special_linear", 1, 99999989) == 1
        assert time.perf_counter() - start < 0.1

    def test_no_table_of_size_ell(self):
        # O_1 at ell = 10007 walks all of F_ell: a table of its ell values
        # would hold ell ints, over 280 kB
        L = make_lattice([[2]])
        tracemalloc.start()
        try:
            count = brute_force_points("orthogonal", 1, 10007, of=L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2
        assert peak < 20_000

    def test_sl3_mod2_formula(self):
        # |SL3(F2)| = |GL3(F2)| = (8-1)(8-2)(8-4) = 168
        assert brute_force_points("special_linear", 3, 2) == 168

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_force_points("special_linear", 4, 11)

    def test_input_validation(self):
        with pytest.raises(BadParameter):
            brute_force_points("symplectic", 3, 3)
        with pytest.raises(BadParameter):
            brute_force_points("orthogonal", 2, 3)
        with pytest.raises(BadParameter):
            brute_force_points("weird", 2, 3)
