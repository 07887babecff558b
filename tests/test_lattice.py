import json
import random
from fractions import Fraction

import pytest

from quadlat.errors import BadParameter, Degenerate, NotSymmetric, OddLattice, TooLarge, UnknownAtom
import quadlat.lattice
from quadlat.embeddings import as_lattice, build_iota2d, in_tilde_O, nikulin_check, orthogonal_complement
from quadlat.expr import evaluate_expr
from quadlat.lattice import (
    DiscriminantForm,
    Lattice,
    Signature,
    direct_sum,
    disc_form_isomorphic,
    discriminant_form,
    discriminant_group,
    dual_basis,
    is_even,
    lattice_from_json,
    lattice_to_json,
    make_lattice,
    min_generators,
    pair,
    rescale,
    signature,
    standard,
)
from quadlat.linalg import IntMatrix, RatMatrix, _det_and_inertia, _smith, block_diag, det_exact


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


def random_nondegenerate(rng, max_rank=5, bound=9):
    while True:
        n = rng.randint(1, max_rank)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-bound, bound)
                rows[i][j] = v
                rows[j][i] = v
        if det_exact(IntMatrix(rows)) != 0:
            return make_lattice(rows)


class TestMakeLattice:
    def test_hyperbolic_plane(self):
        L = make_lattice([[0, 1], [1, 0]])
        assert L.rank == 2 and L.det == -1

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            make_lattice([[1, 2], [2, 4]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            make_lattice([[0, 1], [2, 0]])


class TestStandard:
    def test_lambda2d_determinant(self):
        # det = det(E8(-1))^2 · det(U)^2 · (-2d) = -2d
        L = standard("Lambda2d", 1)
        assert L.rank == 21 and L.det == -2

    def test_sharp_is_even_unimodular(self):
        L = standard("LambdaSharp")
        assert L.rank == 28 and abs(L.det) == 1 and is_even(L)

    def test_gen(self):
        assert standard("gen", -4).gram.tolist() == [[-4]]

    def test_k3_lattice(self):
        L = standard("LambdaK3")
        assert L.rank == 22 and abs(L.det) == 1 and is_even(L)
        assert signature(L) == Signature(3, 19)

    def test_an(self):
        a2 = standard("An", 2)
        assert a2.gram.tolist() == [[2, -1], [-1, 2]] and a2.det == 3

    def test_bad_parameters(self):
        with pytest.raises(UnknownAtom):
            standard("Foo")
        with pytest.raises(BadParameter, match="nothing"):
            direct_sum()
        with pytest.raises(BadParameter):
            standard("gen", 0)
        with pytest.raises(BadParameter):
            standard("Lambda2d", 0)
        with pytest.raises(BadParameter):
            standard("E8", 0)


class TestFixedAtoms:
    @pytest.mark.parametrize(
        "name, params, label",
        [("E8", (), "E8"), ("E8", (-1,), "E8(-1)"), ("U", (), "U"), ("LambdaSharp", (), "LambdaSharp"),
         ("LambdaK3", (), "LambdaK3")],
    )
    def test_cached_atom_equals_a_fresh_lattice(self, name, params, label):
        L = standard(name, *params)
        fresh = make_lattice(L.gram, L.label)
        assert (L.det, signature(L), L.label) == (fresh.det, signature(fresh), label)
        assert L.gram == fresh.gram
        assert standard(name, *params) is L  # built once per process

    def test_atom_grams(self):
        e8 = IntMatrix(E8_ROWS)
        assert standard("E8").gram == e8 and standard("E8", 1) is standard("E8")
        assert standard("E8", -1).gram == e8.scale(-1)
        blocks = [e8.scale(-1)] * 3 + [standard("U").gram] * 2
        assert standard("LambdaSharp").gram == block_diag(*blocks)
        assert standard("LambdaK3").gram == block_diag(*blocks[1:], standard("U").gram)

    def test_memo_keys_are_the_fixed_names(self):
        for d in (1, 2, 3):
            standard("Lambda2d", d)
        for name, params in [("E8", (2,)), ("E8", (-3,)), ("U", (-1,)), ("U", (6,)), ("An", (3, -1)), ("gen", (-2,))]:
            L = standard(name, *params)
            assert standard(name, *params) is not L  # scaled and parametrised lattices are not kept
        assert set(quadlat.lattice._ATOMS) <= {"E8", "E8(-1)", "U", "LambdaSharp", "LambdaK3"}

    def test_scaled_atoms_keep_their_labels(self):
        assert standard("E8", 2).label == "E8(2)" and standard("U", -1).label == "U(-1)"
        assert standard("U", -1).gram == standard("U").gram.scale(-1)


class TestSignature:
    def test_hyperbolic_plane(self):
        assert signature(standard("U")) == Signature(1, 1)

    def test_lambda2d_family(self):
        for d in (1, 3, 17):
            assert signature(standard("Lambda2d", d)) == Signature(2, 19)

    def test_sharp(self):
        assert signature(standard("LambdaSharp")) == Signature(2, 26)
        assert signature(standard("LambdaSharp")).rank == 28

    def test_rank_additivity_on_randoms(self):
        rng = random.Random(99)
        for _ in range(60):
            L = random_nondegenerate(rng, max_rank=4, bound=5)
            sig = signature(L)
            assert sig.plus + sig.minus == L.rank

    def test_against_independent_congruence_oracle(self):
        # oracle repairs zero diagonals by adding another row/column
        # instead of counting hyperbolic blocks, so the two reductions
        # share no code path for the tricky cases
        def oracle(gram):
            n = gram.nrows
            a = [[Fraction(x) for x in row] for row in gram]
            plus = minus = 0
            idx = list(range(n))
            while idx:
                i0 = idx[0]
                if a[i0][i0] == 0:
                    j = next((j for j in idx[1:] if a[i0][j]), None)
                    if j is None:
                        idx = idx[1:]
                        continue
                    for s in (1, -1):
                        if a[i0][i0] + 2 * s * a[i0][j] + a[j][j] != 0:
                            break
                    for t in range(n):
                        a[i0][t] += s * a[j][t]
                    for t in range(n):
                        a[t][i0] += s * a[t][j]
                d = a[i0][i0]
                if d > 0:
                    plus += 1
                else:
                    minus += 1
                rest = idx[1:]
                for r in rest:
                    c = a[r][i0] / d
                    if c:
                        for t in rest:
                            a[r][t] -= c * a[i0][t]
                idx = rest
            return plus, minus

        cases = [
            standard("U"),
            direct_sum(standard("U"), standard("U")),
            direct_sum(standard("U"), standard("gen", 2)),
            direct_sum(standard("U", -3), standard("U"), standard("gen", -5)),
            standard("Lambda2d", 2),
        ]
        rng = random.Random(1618)
        cases += [random_nondegenerate(rng, max_rank=5, bound=6) for _ in range(40)]
        for L in cases:
            sig = signature(L)
            assert (sig.plus, sig.minus) == oracle(L.gram)


class TestParityAndRescale:
    def test_evenness(self):
        assert is_even(standard("E8", -1))
        assert not is_even(standard("gen", 3))
        assert is_even(standard("U"))

    def test_rescale(self):
        assert rescale(standard("U"), -1).gram.tolist() == [[0, -1], [-1, 0]]
        with pytest.raises(BadParameter):
            rescale(standard("U"), 0)

    def test_direct_sum(self):
        L = direct_sum(standard("gen", 2), standard("gen", -2))
        assert L.gram.tolist() == [[2, 0], [0, -2]]

    def test_negated_e8_signature(self):
        assert signature(rescale(standard("E8"), -1)) == Signature(0, 8)

    def test_det_and_signature_laws(self):
        rng = random.Random(4)
        for _ in range(30):
            L1 = random_nondegenerate(rng, max_rank=3, bound=4)
            L2 = random_nondegenerate(rng, max_rank=3, bound=4)
            s = direct_sum(L1, L2)
            assert s.det == L1.det * L2.det
            sig1, sig2, sigs = signature(L1), signature(L2), signature(s)
            assert (sigs.plus, sigs.minus) == (sig1.plus + sig2.plus, sig1.minus + sig2.minus)
            n = rng.choice([-3, -1, 2, 5])
            assert rescale(L1, n).det == n**L1.rank * L1.det


class TestDualBasis:
    def test_self_dual_hyperbolic(self):
        assert dual_basis(standard("U")).tolist() == [[0, 1], [1, 0]]

    def test_rank_one(self):
        d = 3
        assert dual_basis(standard("gen", -2 * d))[0][0] == Fraction(-1, 2 * d)

    def test_unimodular_dual_is_integral(self):
        assert dual_basis(standard("E8", -1)).is_integral()

    def test_dual_times_gram_is_identity(self):
        rng = random.Random(12)
        for _ in range(40):
            L = random_nondegenerate(rng, max_rank=4, bound=6)
            assert dual_basis(L) @ L.gram == RatMatrix.identity(L.rank)


class TestDiscriminantGroup:
    def test_lambda2d_cyclic(self):
        for d in (1, 2, 9, 31):
            dg = discriminant_group(standard("Lambda2d", d))
            assert dg.invariant_factors == (2 * d,)

    def test_unimodular_trivial(self):
        assert discriminant_group(standard("LambdaSharp")).invariant_factors == ()

    def test_two_torsion_square(self):
        dg = discriminant_group(make_lattice([[2, 0], [0, 2]]))
        assert dg.invariant_factors == (2, 2)

    def test_order_equals_det_on_randoms(self):
        rng = random.Random(2023)
        for _ in range(200):
            L = random_nondegenerate(rng)
            dg = discriminant_group(L)
            assert dg.order == abs(L.det)
            # each lift g has d·g integral and g in the dual lattice
            for d, i in zip(dg.invariant_factors, range(dg.generator_lifts.nrows)):
                g = dg.generator_lifts[i]
                assert all((d * x).denominator == 1 for x in g)
                paired = (RatMatrix([g]) @ L.gram)[0]
                assert all(x.denominator == 1 for x in paired)

    def test_kept_once_per_lattice(self):
        rng = random.Random(14)
        lattices = [standard("Lambda2d", 7), standard("LambdaSharp"), rescale(standard("U"), 6)]
        lattices += [random_nondegenerate(rng) for _ in range(30)]
        for L in lattices:
            A = discriminant_group(L)
            assert discriminant_group(L) is A
            fresh = discriminant_group(make_lattice(L.gram))
            assert fresh is not A and fresh == A

    def test_invariants_read_the_kept_group(self, monkeypatch):
        L = standard("Lambda2d", 11)
        A = discriminant_group(L)

        def refuse(*args):
            raise AssertionError("a second Smith form of the same lattice")

        monkeypatch.setattr(quadlat.lattice, "_smith", refuse)
        assert nikulin_check(L, Signature(2, 26)).guaranteed
        assert discriminant_form(L).group is A
        assert in_tilde_O(L, IntMatrix.identity(21))

    def test_min_generators(self):
        assert min_generators(discriminant_group(standard("Lambda2d", 5))) == 1
        assert min_generators(discriminant_group(standard("U"))) == 0
        assert min_generators(discriminant_group(make_lattice([[2, 0], [0, 2]]))) == 2


def _transform_group(gram):
    # invariant factors > 1 and the lifts U_i/d_i, read off the Smith transform
    U, S, _ = _smith(gram, True, False)
    rows = [i for i in range(gram.nrows) if S[i][i] > 1]
    lifts = RatMatrix([[Fraction(x, S[i][i]) for x in U[i]] for i in rows], ncols=gram.nrows)
    return tuple(S[i][i] for i in rows), lifts


class TestConstructedLambda2dGram:
    """standard("Lambda2d", d) reads its Gram off the LambdaK3 block and
    states its det and signature: they must be the direct sum's."""

    def test_equals_the_direct_sum(self):
        e8, u = standard("E8", -1).gram, standard("U").gram
        for d in range(1, 1001):
            L = standard("Lambda2d", d)
            assert L.gram == block_diag(e8, e8, u, u, IntMatrix([[-2 * d]]))
            assert (L.det, *signature(L)) == _det_and_inertia(L.gram)


class TestConstructedLambda2dGroup:
    """standard("Lambda2d", d) carries ℤ/2d with the lift -e₂₀/(2d), which
    is what the Smith transform gives."""

    def test_equals_the_transform_lift(self, monkeypatch):
        built = [standard("Lambda2d", d) for d in range(1, 1001)]
        for d, L in enumerate(built, 1):
            factors, lifts = _transform_group(L.gram)
            assert (factors, lifts) == ((2 * d,), RatMatrix([[0] * 20 + [Fraction(-1, 2 * d)]]))

            def refuse(*args):
                raise AssertionError("a Smith form of a lattice that carries its group")

            with monkeypatch.context() as m:
                m.setattr(quadlat.lattice, "_smith", refuse)
                group = discriminant_group(L)
            assert (group.invariant_factors, group.generator_lifts) == (factors, lifts)

    @pytest.mark.parametrize("c", [2, -2, 3, -3])
    def test_prefix_transform_is_kept(self, c):
        # the premise of the construction: the unimodular prefix E8(-1)^2 + U^2
        # is done before the last row is touched, and that row only takes a sign
        prefix = direct_sum(*[standard("E8", -1)] * 2, *[standard("U")] * 2)
        U_prefix, S_prefix, _ = _smith(prefix.gram, True, False)
        U, S, _ = _smith(block_diag(prefix.gram, IntMatrix([[c]])), True, False)
        assert [S_prefix[i][i] for i in range(20)] == [1] * 20
        assert [S[i][i] for i in range(21)] == [1] * 20 + [abs(c)]
        sign = 1 if c > 0 else -1
        assert U == [row + [0] for row in U_prefix] + [[0] * 20 + [sign]]

    @pytest.mark.parametrize("d", [1, 7, 37, 1000])
    def test_relabelled_copies_find_the_same_lift(self, d):
        # the copies carry the constructed group, which is the one a fresh
        # lattice on the same Gram finds by the Smith transform
        copies = (evaluate_expr(f"Lambda2d({d})"), as_lattice(build_iota2d(d)), as_lattice(build_iota2d(d), "L"))
        for L in copies:
            assert L._group is not None
            assert discriminant_group(L) == discriminant_group(make_lattice(L.gram))


class TestConstructedGenGroup:
    """standard("gen", k) states det k and its signature, and carries ℤ/|k|
    with the lift sign(k)/|k|: what a lattice on the Gram [k] finds by the
    elimination and the Smith transform."""

    def test_equals_the_lattice_of_its_gram(self, monkeypatch):
        for k in (*range(-1000, 0), *range(1, 1001)):
            L, fresh = standard("gen", k), make_lattice([[k]])
            assert (L.gram, L.det, signature(L), L.label) == (fresh.gram, fresh.det, signature(fresh), f"gen({k})")
            factors, lifts = _transform_group(fresh.gram)

            def refuse(*args):
                raise AssertionError("a Smith form of a lattice that carries its group")

            with monkeypatch.context() as m:
                m.setattr(quadlat.lattice, "_smith", refuse)
                group = discriminant_group(L)
            assert (group.invariant_factors, group.generator_lifts) == (factors, lifts)
            assert group == discriminant_group(fresh)


class TestDiscriminantForm:
    def test_rank_one_q_value(self):
        for d in (1, 2, 5):
            F = discriminant_form(standard("gen", -2 * d))
            assert F.q_values == (Fraction(-1, 2 * d) % 2,)

    def test_plus_minus_two(self):
        F = discriminant_form(direct_sum(standard("gen", 2), standard("gen", -2)))
        assert F.q_values == (Fraction(1, 2), Fraction(-1, 2) % 2)

    def test_unimodular_empty(self):
        F = discriminant_form(standard("LambdaSharp"))
        assert F.q_values == () and F.order == 1

    def test_odd_lattice_rejected(self):
        with pytest.raises(OddLattice):
            discriminant_form(standard("gen", 3))

    def test_quadratic_refinement_identity(self):
        # q(x+y) - q(x) - q(y) = 2·b(x,y) mod 2, on all element pairs
        rng = random.Random(77)
        checked = 0
        while checked < 15:
            L = random_nondegenerate(rng, max_rank=3, bound=4)
            if not is_even(L) or abs(L.det) > 30:
                continue
            F = discriminant_form(L)
            elems = list(F.elements())
            factors = F.group.invariant_factors
            for x in elems:
                for y in elems:
                    s = tuple((a + b) % d for a, b, d in zip(x, y, factors))
                    lhs = (F.q_of(s) - F.q_of(x) - F.q_of(y)) % 2
                    assert lhs == (2 * F.b_of(x, y)) % 2
            checked += 1


class TestDiscFormIsomorphic:
    def test_reflexive(self):
        F = discriminant_form(standard("Lambda2d", 6))
        assert disc_form_isomorphic(F, F, negate=False)

    def test_sign_flip(self):
        F1 = discriminant_form(standard("gen", 2))
        F2 = discriminant_form(standard("gen", -2))
        assert disc_form_isomorphic(F1, F2, negate=True)
        assert not disc_form_isomorphic(F1, F2, negate=False)

    def test_trivial_forms(self):
        trivial = [discriminant_form(standard(*a)) for a in (("U",), ("E8",), ("E8", -1), ("LambdaK3",))]
        for F1 in trivial:
            for F2 in trivial:
                assert disc_form_isomorphic(F1, F2) and disc_form_isomorphic(F1, F2, negate=True)
            assert not disc_form_isomorphic(F1, discriminant_form(standard("gen", 2)))

    def test_mismatched_groups(self):
        F1 = discriminant_form(standard("gen", 4))
        F2 = discriminant_form(standard("gen", 6))
        assert not disc_form_isomorphic(F1, F2)

    def test_cap_enforced(self):
        F = discriminant_form(standard("gen", 2 * 60))
        with pytest.raises(TooLarge):
            disc_form_isomorphic(F, F, cap=100)

    def test_cap_is_inclusive(self):
        F = discriminant_form(standard("gen", 2 * 60))  # |A| = 120
        assert disc_form_isomorphic(F, F, cap=120)
        with pytest.raises(TooLarge):
            disc_form_isomorphic(F, F, cap=119)

    def test_a2_against_negated_a2(self):
        # q(g) = 2/3 on Z/3 for A2; every generator has the same q value,
        # so A2 and A2(-1) match only with the sign flip
        F1 = discriminant_form(standard("An", 2))
        F2 = discriminant_form(standard("An", 2, -1))
        assert disc_form_isomorphic(F1, F2, negate=True)
        assert not disc_form_isomorphic(F1, F2, negate=False)

    def test_negated_an_follows_minus_one_legendre(self):
        # A_{p-1} has q(g) = (p-1)/p on ℤ/p; -q has the same Legendre symbol
        # exactly when (-1/p) = 1: for p = 5 and not for p = 7 (p = 3 above)
        for n, same in ((4, True), (6, False)):
            F1 = discriminant_form(standard("An", n))
            F2 = discriminant_form(standard("An", n, -1))
            assert disc_form_isomorphic(F1, F2) == same
            assert disc_form_isomorphic(F1, F2, negate=True)

    @pytest.fixture
    def part_searches(self, monkeypatch):
        # the invariant factors of every p-part that goes to the search
        calls = []
        search = quadlat.lattice._search_isomorphism

        def recording(T1, T2, sign):
            calls.append(T1.factors)
            return search(T1, T2, sign)

        monkeypatch.setattr(quadlat.lattice, "_search_isomorphism", recording)
        return calls

    def test_search_runs_only_on_the_two_part(self, part_searches):
        # the iota2d complement has -q(gen(-2d)); 2d = 2·4999 and 2d = 2³·3
        for d, two_part in ((4999, (2,)), (12, (8,))):
            F = discriminant_form(as_lattice(orthogonal_complement(build_iota2d(d))))
            assert F.order == 2 * d
            part_searches.clear()
            assert disc_form_isomorphic(F, discriminant_form(standard("gen", -2 * d)), negate=True)
            assert part_searches == [two_part]

    def test_element_tables_only_for_searched_parts(self, monkeypatch):
        # the odd part of ℤ/2d (d = 4999), decided by its Jordan symbol, gets no table
        built = []
        table = quadlat.lattice._ElementTable

        def recording(factors, *rest):
            built.append(factors)
            return table(factors, *rest)

        monkeypatch.setattr(quadlat.lattice, "_ElementTable", recording)
        F = discriminant_form(as_lattice(orthogonal_complement(build_iota2d(4999))))
        assert disc_form_isomorphic(F, discriminant_form(standard("gen", -2 * 4999)), negate=True)
        assert built == [(2,), (2,)]

    def test_odd_parts_need_no_search_unless_degenerate(self, part_searches):
        u3 = discriminant_form(standard("U", 3))
        u3_a2 = discriminant_form(direct_sum(standard("U", 3), standard("An", 2)))
        assert disc_form_isomorphic(u3, u3) and not disc_form_isomorphic(u3_a2, u3_a2, negate=True)
        assert part_searches == []
        zero = DiscriminantForm(u3.group, (0, 0), RatMatrix([[0, 0], [0, 0]]), u3.lattice)
        assert not disc_form_isomorphic(zero, u3) and not disc_form_isomorphic(u3, zero, negate=True)
        assert part_searches == []
        assert disc_form_isomorphic(zero, zero)
        assert part_searches == [(3, 3)]

    def test_leaf_span_refuses_images_that_do_not_generate(self):
        # a hand-built form on (ℤ/2)² with q = 0 and b = 0: mapping both
        # generators to (1, 0) of q(U(2)) matches every q and b value but
        # does not generate; the (order, q) counts differ (q(U(2)) takes the
        # value 1 once), so the pair is refused before any image is chosen
        F2 = discriminant_form(standard("U", 2))
        F1 = DiscriminantForm(F2.group, (0, 0), RatMatrix([[0, 0], [0, 0]]), F2.lattice)
        for negate in (False, True):
            assert not disc_form_isomorphic(F1, F2, negate)
        assert disc_form_isomorphic(F2, F2)


class TestIsomorphismSearchWork:
    # hand-built zero forms (q = 0, b = 0) match every q and b value on any
    # images, so only the independence of the images mod p prunes the search

    @staticmethod
    def _zero(factors):
        L = direct_sum(*(standard("gen", d) for d in factors))
        s = len(factors)
        return DiscriminantForm(discriminant_group(L), (0,) * s, RatMatrix([[0] * s] * s), L)

    @pytest.fixture
    def b_calls(self, monkeypatch):
        # b lookups in the element tables of the searched parts
        calls = []
        b = quadlat.lattice._ElementTable.b

        def counted(self, x, y):
            calls.append(None)
            return b(self, x, y)

        monkeypatch.setattr(quadlat.lattice._ElementTable, "b", counted)
        return calls

    @pytest.mark.parametrize("factors", [(2,) * 6, (3,) * 4, (3, 9)])
    def test_zero_forms(self, b_calls, factors):
        Z = self._zero(factors)
        u2_cubed, u3_squared = (discriminant_form(direct_sum(*[standard("U", p)] * k)) for p, k in ((2, 3), (3, 2)))
        for negate in (False, True):
            b_calls.clear()
            assert disc_form_isomorphic(Z, Z, negate)
            assert len(b_calls) < 2000
            for F in (u2_cubed, u3_squared):
                b_calls.clear()
                assert not disc_form_isomorphic(Z, F, negate) and not disc_form_isomorphic(F, Z, negate)
                assert len(b_calls) < 2000


class TestDiscriminantFormValidation:
    # forms on (ℤ/2)², ℤ/2 ⊕ ℤ/4, ℤ/2 and ℤ/3 that fail exactly one condition

    @staticmethod
    def _form(factors, q, b):
        L = direct_sum(*(standard("gen", d) for d in factors))
        return DiscriminantForm(discriminant_group(L), tuple(map(Fraction, q)), RatMatrix(b), L)

    def test_accepts_a_quadratic_form(self):
        F = self._form((3,), ("4/3",), [["1/3"]])
        assert F._q_gen == (4,) and F._b_gen == ((1,),)

    def test_values_outside_the_canonical_ranges_read_reduced(self):
        # q = -2/3 ≡ 4/3 (mod 2) and b = 7/3 ≡ 1/3 (mod 1), on ℤ/3; and on
        # (ℤ/2)², q = (2, -3/2) ≡ (0, 1/2) and b = (-1, -1/2; 3/2, 5/2) ≡ (0, 1/2; 1/2, 1/2)
        for factors, q, b, reduced_q, reduced_b in (
            ((3,), ("-2/3",), [["7/3"]], ("4/3",), [["1/3"]]),
            ((2, 2), (2, "-3/2"), [[-1, "-1/2"], ["3/2", "5/2"]], (0, "1/2"), [[0, "1/2"], ["1/2", "1/2"]]),
        ):
            F, reduced = self._form(factors, q, b), self._form(factors, reduced_q, reduced_b)
            assert F.q_values == tuple(map(Fraction, reduced_q))
            assert F.b_values == RatMatrix(reduced_b)
            assert all(0 <= x < 2 for x in F.q_values) and all(0 <= x < 1 for row in F.b_values for x in row)
            assert F == reduced and hash(F) == hash(reduced)

    def test_b_not_symmetric(self):
        with pytest.raises(BadParameter, match="symmetric"):
            self._form((2, 2), (0, 0), [[0, "1/2"], [0, 0]])

    def test_b_not_killed_by_the_order(self):
        # 2·b(g0, g1) = 1/2 is not an integer, though 4·b(g1, g0) is
        with pytest.raises(BadParameter, match=r"1/2\)ℤ"):
            self._form((2, 4), (0, 0), [[0, "1/4"], ["1/4", 0]])

    def test_q_not_refining_b(self):
        with pytest.raises(BadParameter, match="mod 1"):
            self._form((2,), (0,), [["1/2"]])

    def test_q_not_killed_by_the_square_of_the_order(self):
        # q = 1/3 refines b = 1/3, but 9·q = 3 is odd; q = 4/3 is the form
        with pytest.raises(BadParameter, match="2ℤ"):
            self._form((3,), ("1/3",), [["1/3"]])

    def test_shape_mismatch(self):
        with pytest.raises(BadParameter, match="generators"):
            self._form((2, 2), (0,), [[0, 0], [0, 0]])


class TestJson:
    def test_round_trip(self):
        L = standard("Lambda2d", 4)
        data = json.loads(json.dumps(lattice_to_json(L)))
        L2 = lattice_from_json(data)
        assert L2.gram == L.gram and L2.label == L.label

    def test_label_optional(self):
        L = lattice_from_json({"gram": [[0, 1], [1, 0]]})
        assert L.label is None

    def test_missing_gram_rejected(self):
        with pytest.raises(BadParameter):
            lattice_from_json({"label": "x"})


def test_pair_helper_matches_matrix_product():
    L = standard("Lambda2d", 2)
    rng = random.Random(8)
    for _ in range(20):
        x = [rng.randint(-3, 3) for _ in range(21)]
        y = [rng.randint(-3, 3) for _ in range(21)]
        expected = (IntMatrix([x]) @ L.gram @ IntMatrix([y]).transpose())[0][0]
        assert pair(L.gram, x, y) == expected
