import itertools
import json
import random
import time
from fractions import Fraction
from math import prod

import pytest

import quadlat.glue
import quadlat.linalg
from quadlat.cli import run
from quadlat.errors import BadParameter, NotIsotropic, TooLarge
from quadlat.expr import evaluate_expr
from quadlat.lattice import (
    direct_sum,
    discriminant_form,
    discriminant_group,
    is_even,
    make_lattice,
    signature,
    standard,
)
from quadlat.linalg import IntMatrix, RatMatrix, _congruence, det_exact, hermite_normal_form
from sample_lattices import random_even_lattice
from quadlat.glue import (
    GlueSubgroup,
    _glue_basis,
    enumerate_even_binary,
    even_overlattices,
    glue_order,
    isotropic_subgroups,
    overlattice_from_glue,
    subgroup_elements,
)

# ---------------------------------------------------------------------------
# Independent oracle: enumerate ALL intermediate subgroups L ⊂ M ⊂ L^dual and
# keep those whose induced Gram is integral and even.  No isotropy logic at
# all; this is the brute force the production path is measured against.
# ---------------------------------------------------------------------------


def _all_subgroups(factors):
    elements = list(itertools.product(*(range(d) for d in factors)))

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, factors))

    def span(gens):
        zero = (0,) * len(factors)
        out = {zero}
        frontier = [zero]
        while frontier:
            e = frontier.pop()
            for g in gens:
                s = add(e, g)
                if s not in out:
                    out.add(s)
                    frontier.append(s)
        return frozenset(out)

    found = {span([])}
    frontier = [span([])]
    while frontier:
        H = frontier.pop()
        for e in elements:
            if e not in H:
                K = span(list(H) + [e])
                if K not in found:
                    found.add(K)
                    frontier.append(K)
    return found


def _intermediate_lattice_gram(L, lifts_rows):
    """Gram of the module generated by L and the given dual rows, or None
    when the induced form is not integral and even."""
    n = L.rank
    stacked = RatMatrix.identity(n).stack(RatMatrix(lifts_rows, ncols=n))
    den = stacked.common_denominator()
    H, _ = hermite_normal_form(stacked.scale(den).to_int())
    basis = RatMatrix([H[i] for i in range(n)], ncols=n).scale(Fraction(1, den))
    gram = basis @ L.gram @ basis.transpose()
    if not gram.is_integral():
        return None
    g = gram.to_int()
    if any(g[i][i] % 2 for i in range(n)):
        return None
    return g


def brute_force_even_overlattices(L):
    """Map: subgroup element-set -> overlattice Gram, by scanning everything."""
    F = discriminant_form(L)
    lifts = F.group.generator_lifts
    factors = F.group.invariant_factors
    n = L.rank
    result = {}
    for H in _all_subgroups(factors):
        rows = []
        for e in sorted(H):
            rows.append([sum(c * lifts[i][j] for i, c in enumerate(e)) for j in range(n)])
        gram = _intermediate_lattice_gram(L, rows)
        if gram is not None:
            key = frozenset(tuple(Fraction(x) % 1 for x in row) for row in rows)
            result[key] = gram
    return result


class TestIsotropicSubgroups:
    def test_unimodular_only_trivial(self):
        subs = isotropic_subgroups(discriminant_form(standard("LambdaSharp")))
        assert len(subs) == 1 and glue_order(subs[0]) == 1

    def test_plus_minus_two(self):
        # elements of Z/2 x Z/2 carry q = (a - b)/2 mod 2; only (1,1) kills it
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        subs = isotropic_subgroups(discriminant_form(L))
        assert [glue_order(G) for G in subs] == [1, 2]

    def test_two_plus_two_has_no_nontrivial_glue(self):
        L = direct_sum(standard("gen", 2), standard("gen", 2))
        subs = isotropic_subgroups(discriminant_form(L))
        assert len(subs) == 1

    def test_cap(self):
        with pytest.raises(TooLarge):
            isotropic_subgroups(discriminant_form(standard("gen", -2 * 30)), cap=10)

    def test_cap_checked_before_the_element_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a group above the cap gets no element table")

        monkeypatch.setattr(quadlat.glue, "_ElementTable", no_table)
        with pytest.raises(TooLarge):
            isotropic_subgroups(discriminant_form(standard("gen", -2 * 30)), cap=10)

    def test_generators_live_in_dual(self):
        L = direct_sum(standard("gen", 6), standard("gen", -6))
        for G in isotropic_subgroups(discriminant_form(L)):
            for i in range(G.generators.nrows):
                paired = (RatMatrix([G.generators[i]]) @ L.gram)[0]
                assert all(x.denominator == 1 for x in paired)

    def test_dual_membership_validated(self):
        with pytest.raises(BadParameter):
            GlueSubgroup(standard("U"), RatMatrix([[Fraction(1, 3), 0]]))

    def test_plain_lists_become_a_matrix(self):
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        G = GlueSubgroup(L, [[Fraction(1, 2), Fraction(1, 2)]])
        assert G.generators == RatMatrix([[Fraction(1, 2), Fraction(1, 2)]]) and glue_order(G) == 2

    # plain rows of the wrong width fail building the matrix, as ragged rows
    @pytest.mark.parametrize(
        "generators", [RatMatrix([[0, 0, 0]]), [[0, 0, 0]]], ids=["matrix", "lists"]
    )
    def test_wrong_width_rejected(self, generators):
        # one mistake, one kind of error, however the rows are given; no rows take the base rank
        with pytest.raises(BadParameter):
            GlueSubgroup(standard("U"), generators)
        assert GlueSubgroup(standard("U"), []).generators == RatMatrix([], ncols=2)


class TestGlueSearchCap:
    """The search counts the coset elements it builds, and the |A| cap does
    not lift its own; U(2)^4 and U(6)^2 answer under it (below)."""

    def test_u2_cubed_builds_1520(self, monkeypatch):
        F = discriminant_form(evaluate_expr("U(2)^3"))
        monkeypatch.setattr(quadlat.glue, "GLUE_SEARCH_CAP", 1520)
        assert len(isotropic_subgroups(F)) == 171
        monkeypatch.setattr(quadlat.glue, "GLUE_SEARCH_CAP", 1519)
        with pytest.raises(TooLarge, match="past its cap 1519"):
            isotropic_subgroups(F, cap=10**9)


def gaussian_binomial(n, k, p):
    return prod(p ** (n - i) - 1 for i in range(k)) // prod(p ** (i + 1) - 1 for i in range(k))


def hyperbolic_isotropic_count(n, p):
    """Totally isotropic subspaces of the hyperbolic quadratic space of
    dimension 2n over F_p: Σₖ [n choose k]_p · ∏_{i<k} (p^(n-1-i) + 1)."""
    return sum(
        gaussian_binomial(n, k, p) * prod(p ** (n - 1 - i) + 1 for i in range(k)) for k in range(n + 1)
    )


class TestIsotropicCountsByFormula:
    """U(p)^n has discriminant form the hyperbolic space of dimension 2n
    over F_p (q = 2xy/p), so its isotropic subgroups are counted in closed
    form; each must be returned exactly once."""

    @staticmethod
    def element_sets(expr):
        subs = isotropic_subgroups(discriminant_form(evaluate_expr(expr)))
        sets = [subgroup_elements(G) for G in subs]
        assert len(set(sets)) == len(sets)
        return sets

    @pytest.mark.parametrize("p, count", [(2, 16), (3, 25), (5, 49), (7, 81)])
    def test_hyperbolic_plane_squares(self, p, count):
        assert hyperbolic_isotropic_count(2, p) == count
        assert len(self.element_sets(f"U({p})^2")) == count

    def test_u2_cubed(self):
        assert hyperbolic_isotropic_count(3, 2) == 171
        assert len(self.element_sets("U(2)^3")) == 171

    def test_u2_fourth(self):
        # the first form with eight generators: 4,006 subgroups
        assert hyperbolic_isotropic_count(4, 2) == 4006
        assert len(self.element_sets("U(2)^4")) == 4006

    def test_u6_squared_splits_over_primes(self):
        # the 2-part and the 3-part are orthogonal, so the counts multiply
        start = time.perf_counter()
        sets = self.element_sets("U(6)^2")
        assert time.perf_counter() - start < 3
        assert len(sets) == 400 == hyperbolic_isotropic_count(2, 2) * hyperbolic_isotropic_count(2, 3)


class TestOverlatticeFromGlue:
    def test_trivial_glue_returns_base(self):
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        trivial = isotropic_subgroups(discriminant_form(L))[0]
        assert overlattice_from_glue(trivial).gram == L.gram

    def test_unimodular_overlattice_of_split_twos(self):
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        glue = isotropic_subgroups(discriminant_form(L))[1]
        M = overlattice_from_glue(glue)
        assert is_even(M) and abs(M.det) == 1
        assert signature(M) == signature(L)

    def test_non_isotropic_rejected(self):
        # order-2 subgroup generated by (1, 0): q = 1/2, not isotropic
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        G = GlueSubgroup(L, RatMatrix([[Fraction(1, 2), Fraction(0)]]))
        with pytest.raises(NotIsotropic):
            overlattice_from_glue(G)

    def test_determinant_law(self):
        rng = random.Random(910)
        for _ in range(25):
            L = random_even_lattice(rng)
            F = discriminant_form(L)
            for G in isotropic_subgroups(F):
                M = overlattice_from_glue(G)
                # M's det is read off glue_order: check it against an elimination
                assert M.det == det_exact(M.gram) and abs(M.det) * glue_order(G) ** 2 == abs(L.det)
                assert is_even(M)


class TestOneHermiteFormPerSubgroup:
    """A subgroup keeps the Hermite basis ``_glue_basis`` builds, so its
    overlattice, order and elements run one Hermite form between them; the
    trivial subgroup, whose basis is the identity, runs none."""

    @pytest.fixture
    def hnf_calls(self, monkeypatch):
        calls = []
        core = quadlat.linalg._hnf

        def counted(rows, ncols, transform):
            calls.append(ncols)
            return core(rows, ncols, transform)

        monkeypatch.setattr(quadlat.linalg, "_hnf", counted)
        monkeypatch.setattr(quadlat.glue, "_hnf", counted)
        return calls

    def test_overlattices_request_runs_one_per_subgroup(self, hnf_calls, capsys):
        assert run(["--json", "overlattices", "U(2)^3"]) == 0
        assert len(hnf_calls) + 1 == 171 == json.loads(capsys.readouterr().out)["count"]

    @pytest.mark.parametrize("expr", ["U(2)^3", "U(6)^2", "U(2)+gen(6)"])
    def test_order_and_elements_read_the_kept_basis(self, hnf_calls, expr):
        subgroups = isotropic_subgroups(discriminant_form(evaluate_expr(expr)))
        for G in subgroups:
            overlattice_from_glue(G)
        assert len(hnf_calls) == len(subgroups) - 1
        assert all(len(subgroup_elements(G)) == glue_order(G) for G in subgroups)
        assert len(hnf_calls) == len(subgroups) - 1

    def test_public_constructor_starts_without_a_basis(self, hnf_calls):
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        G = GlueSubgroup(L, RatMatrix([[Fraction(1, 2), Fraction(1, 2)]]))
        assert (glue_order(G), glue_order(G), len(hnf_calls)) == (2, 2, 1)


class TestTrivialGlue:
    """Glue of denominator 1 is the trivial subgroup L/L, whose overlattice
    is L itself (Nikulin 1979, §1.4), once L is checked even.  Every other
    overlattice Gram is H·G·Hᵀ divided exactly by den²."""

    @pytest.mark.parametrize(
        "rows",
        [[], [[0, 0, 0]], [[1, 0, -1], [1, 0, -1], [0, 0, 0]], [[2, -1, 3]]],
        ids=["no-rows", "zero-row", "redundant-rows", "lattice-vector"],
    )
    def test_public_trivial_glue_gives_the_base(self, rows):
        L = make_lattice([[2, 1, 0], [1, -4, 1], [0, 1, 6]])
        group = discriminant_group(L)
        G = GlueSubgroup(L, rows)
        M = overlattice_from_glue(G)
        assert (M.gram, M.det, signature(M)) == (L.gram, L.det, signature(L))
        assert discriminant_group(M) is group
        assert glue_order(G) == 1 and subgroup_elements(G) == {(0, 0, 0)}

    @pytest.mark.parametrize("rows", [[], [[0, 0]], [[1, 1]]])
    def test_odd_base_is_refused(self, rows):
        G = GlueSubgroup(make_lattice([[1, 0], [0, 2]]), rows)
        with pytest.raises(NotIsotropic, match="^glue subgroup is not isotropic: odd vector norm$"):
            overlattice_from_glue(G)

    def test_overlattices_match_the_rational_formula(self):
        # the oracle: H·G·Hᵀ over den² as a rational matrix, which must be integral
        # with an even diagonal; on every isotropic subgroup, and on the cyclic
        # subgroup of every group element, isotropic or not
        rng = random.Random(2701)
        glued = refused = 0
        for _ in range(40):
            L = random_even_lattice(rng)
            F = discriminant_form(L)
            lifts = F.group.generator_lifts.tolist()
            cyclic = [
                GlueSubgroup(L, [[sum(c * lift[j] for c, lift in zip(e, lifts)) for j in range(L.rank)]])
                for e in F.elements()
            ]
            for G in isotropic_subgroups(F) + cyclic:
                H, den = _glue_basis(G)
                pairings = RatMatrix._over(_congruence(H, L.gram), den * den)
                if pairings.is_integral() and is_even(make_lattice(pairings.to_int())):
                    M = overlattice_from_glue(G)
                    assert (M.gram, M.det * glue_order(G) ** 2) == (pairings.to_int(), L.det)
                    glued += 1
                else:
                    with pytest.raises(NotIsotropic):
                        overlattice_from_glue(G)
                    refused += 1
        assert glued > 100 and refused > 100


class TestEvenOverlattices:
    def test_hyperbolic_plane_is_maximal(self):
        overs = even_overlattices(standard("U"))
        assert len(overs) == 1 and overs[0].gram == standard("U").gram

    def test_split_twos(self):
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        overs = even_overlattices(L)
        assert len(overs) == 2
        dets = sorted(abs(M.det) for M in overs)
        assert dets == [1, 4]

    def test_six_six_matches_all_subgroup_scan(self):
        L = direct_sum(standard("gen", 6), standard("gen", -6))
        assert len(even_overlattices(L)) == len(brute_force_even_overlattices(L))

    def test_oracle_agreement_on_randoms(self):
        rng = random.Random(414)
        for _ in range(15):
            L = random_even_lattice(rng)
            subs = isotropic_subgroups(discriminant_form(L))
            mine = {
                frozenset(subgroup_elements(G)): M.gram
                for G, M in zip(subs, even_overlattices(L))
            }
            oracle = brute_force_even_overlattices(L)
            assert mine.keys() == oracle.keys()
            for key, gram in oracle.items():
                assert mine[key] == gram


def gauss_reduce(a, b, c):
    """Independent reduction oracle for positive definite ax²+bxy+cy²
    to 0 <= b <= a <= c (unique per isometry class)."""
    while True:
        if a > c:
            a, c = c, a
            b = -b
        # shift b into (-a, a]
        if not (-a < b <= a):
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c += (r * r - b * b) // (4 * a)
            b = r
        if b < 0:
            b = -b  # improper equivalence (x, y) -> (x, -y)
            continue
        if a > c:
            continue
        return a, b, c


class TestEnumerateEvenBinary:
    def test_det_four(self):
        forms = enumerate_even_binary(4, 1)
        assert [f.gram.tolist() for f in forms] == [[[2, 0], [0, 2]]]

    def test_det_three_is_a2(self):
        forms = enumerate_even_binary(3, 1)
        assert [f.gram.tolist() for f in forms] == [[[2, 1], [1, 2]]]

    def test_sign_mismatch_empty(self):
        assert enumerate_even_binary(-1, 1) == []
        assert enumerate_even_binary(-1, -1) == []

    def test_no_form_below_det_three(self):
        # det = 4ac - b² ≥ 3a² ≥ 3 for every reduced definite form
        for det in range(-60, 3):
            for sign in (1, -1):
                assert enumerate_even_binary(det, sign) == []

    def test_negative_definite_negation(self):
        neg = enumerate_even_binary(3, -1)
        assert [f.gram.tolist() for f in neg] == [[[-2, -1], [-1, -2]]]

    def test_bad_sign(self):
        with pytest.raises(BadParameter):
            enumerate_even_binary(4, 2)

    def test_cap(self):
        with pytest.raises(BadParameter):
            enumerate_even_binary(20_000, 1)

    def test_cap_is_inclusive(self):
        assert len(enumerate_even_binary(12, 1, cap=12)) == 2
        with pytest.raises(BadParameter):
            enumerate_even_binary(12, 1, cap=11)

    def test_exhaustive_against_raw_scan(self):
        for det in range(1, 41):
            expected = set()
            for a in range(1, det + 1):
                for c in range(1, det + 1):
                    for b in range(-2 * a, 2 * a + 1):
                        if 4 * a * c - b * b == det:
                            expected.add(gauss_reduce(a, b, c))
            got = {
                (f.gram[0][0] // 2, f.gram[0][1], f.gram[1][1] // 2)
                for f in enumerate_even_binary(det, 1)
            }
            assert got == expected, f"det={det}"

    def test_pairwise_distinct_reduced_forms(self):
        for det in (12, 23, 36, 40):
            forms = enumerate_even_binary(det, 1)
            seen = {tuple(map(tuple, f.gram.tolist())) for f in forms}
            assert len(seen) == len(forms)
            for f in forms:
                a, b, c = f.gram[0][0] // 2, f.gram[0][1], f.gram[1][1] // 2
                assert 0 <= b <= a <= c
