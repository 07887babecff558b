import contextlib
import random
from math import prod

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quadlat import embeddings, linalg
from quadlat.errors import (
    BadParameter,
    Degenerate,
    DimensionMismatch,
    InvariantViolation,
    NotAnIsometry,
    NotDefinite,
    NotInTildeO,
    NotRepresented,
    NotSpecialOrthogonal,
    OddLattice,
    ParityViolation,
    TooLarge,
)
from quadlat.lattice import (
    Signature,
    direct_sum,
    disc_form_isomorphic,
    discriminant_form,
    make_lattice,
    pair,
    signature,
    standard,
)
from quadlat.linalg import IntMatrix, det_exact, kernel_basis
from quadlat.embeddings import (
    SublatticeEmbedding,
    as_lattice,
    build_iota2d,
    count_norm_vectors,
    extend_isometry,
    find_primitive_vector,
    in_tilde_O,
    induced_gram,
    is_isometry,
    is_primitive,
    nikulin_check,
    orthogonal_complement,
    saturate,
    saturation_index,
)

Z2 = make_lattice([[1, 0], [0, 1]])
UU = direct_sum(standard("U"), standard("U"))


class TestNikulin:
    def test_guaranteed_into_2_26(self):
        for d in (1, 4, 150):
            v = nikulin_check(standard("Lambda2d", d), Signature(2, 26))
            assert v.outcome == "Guaranteed" and v.failed_conditions == ()

    def test_2_19_fails_congruence_and_corank(self):
        v = nikulin_check(standard("Lambda2d", 3), Signature(2, 19))
        assert v.outcome == "Unknown"
        assert v.failed_conditions == ("i", "iii")

    def test_2_18_fails_signature_bound(self):
        v = nikulin_check(standard("Lambda2d", 3), Signature(2, 18))
        assert v.outcome == "Unknown"
        assert "ii" in v.failed_conditions

    def test_reduction_to_congruence_class(self):
        # Guaranteed exactly when minus ≡ 2 mod 8 and minus ≥ 20
        for d in (1, 7, 100):
            L = standard("Lambda2d", d)
            for minus in range(19, 43):
                expected = minus % 8 == 2 and minus >= 20
                assert nikulin_check(L, Signature(2, minus)).guaranteed == expected

    def test_odd_lattice_rejected(self):
        with pytest.raises(OddLattice):
            nikulin_check(standard("gen", 3), Signature(1, 8))


class TestSaturation:
    def test_unit_vector_is_primitive(self):
        E = SublatticeEmbedding(Z2, IntMatrix([[1, 0]]))
        assert is_primitive(E) and saturation_index(E) == 1

    def test_doubled_vector(self):
        E = SublatticeEmbedding(Z2, IntMatrix([[2, 0]]))
        assert not is_primitive(E)
        assert saturate(E).basis.tolist() == [[1, 0]]

    def test_index_six_sublattice(self):
        E = SublatticeEmbedding(Z2, IntMatrix([[2, 4], [0, 3]]))
        assert saturation_index(E) == 6
        assert saturate(E).basis == IntMatrix.identity(2)

    def test_saturation_is_idempotent(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(1, 4)
            k = rng.randint(1, n)
            while True:
                rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
                try:
                    E = SublatticeEmbedding(Z2 if n == 2 else make_lattice(
                        [[1 if i == j else 0 for j in range(n)] for i in range(n)]), IntMatrix(rows, ncols=n))
                    break
                except BadParameter:
                    continue
            S = saturate(E)
            assert is_primitive(S)
            assert saturate(S).basis == S.basis


class TestSublatticeEmbedding:
    def test_proportional_rows_rejected(self):
        with pytest.raises(BadParameter):
            SublatticeEmbedding(UU, IntMatrix([[1, 2, 0, -1], [-2, -4, 0, 2]]))

    def test_three_rows_in_rank_two_rejected(self):
        with pytest.raises(BadParameter):
            SublatticeEmbedding(Z2, IntMatrix([[1, 0], [0, 1], [1, 1]]))

    def test_plain_lists_become_a_matrix(self):
        E = SublatticeEmbedding(UU, [[1, 0, 0, 0], [0, 0, 1, 1]])
        assert E.basis == IntMatrix([[1, 0, 0, 0], [0, 0, 1, 1]])

    # plain rows of the wrong width fail building the matrix, as ragged rows
    @pytest.mark.parametrize(
        "basis", [IntMatrix([[1, 0, 0]]), [[1, 0, 0]]], ids=["matrix", "lists"]
    )
    def test_wrong_width_rejected(self, basis):
        # one mistake, one kind of error, however the rows are given; no rows take the ambient rank
        with pytest.raises(DimensionMismatch):
            SublatticeEmbedding(UU, basis)
        assert SublatticeEmbedding(UU, []).basis == IntMatrix([], ncols=UU.rank)


@st.composite
def embeddings_in(draw, max_rank=6):
    """An embedding through the public constructor: independent rows in a non-degenerate ambient."""
    n = draw(st.integers(1, max_rank))
    entries = st.integers(-3, 3)
    upper = [[draw(entries) for _ in range(n - i)] for i in range(n)]
    gram = [[upper[min(i, j)][abs(i - j)] for j in range(n)] for i in range(n)]
    assume(det_exact(IntMatrix(gram)) != 0)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n))
    basis = IntMatrix(rows, ncols=n)
    assume(det_exact(basis @ basis.transpose()) != 0)
    return SublatticeEmbedding(make_lattice(gram), basis)


def _independent(E):
    # the check the public constructor makes, kept here as an oracle
    return det_exact(E.basis @ E.basis.transpose()) != 0 and E.basis.ncols == E.ambient.rank


class TestKernelEmbeddings:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(embeddings_in())
    def test_complement_and_saturation_rows_are_independent(self, E):
        C, S = orthogonal_complement(E), saturate(E)
        assert _independent(C) and C.rank == E.ambient.rank - E.rank
        assert _independent(S) and S.rank == E.rank
        assert orthogonal_complement(E) is C  # E keeps its complement
        assert _independent(orthogonal_complement(C)) and _independent(saturate(C))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(embeddings_in(), st.data())
    def test_public_constructor_refuses_dependent_rows(self, E, data):
        assume(E.rank >= 1)
        coefficients = data.draw(st.lists(st.integers(-3, 3), min_size=E.rank, max_size=E.rank))
        combination = [sum(c * row[j] for c, row in zip(coefficients, E.basis)) for j in range(E.ambient.rank)]
        rows = E.basis.tolist()
        rows.insert(data.draw(st.integers(0, E.rank)), combination)
        with pytest.raises(BadParameter):
            SublatticeEmbedding(E.ambient, IntMatrix(rows, ncols=E.ambient.rank))

    @pytest.mark.parametrize("d", [1, 2, 37, 1000])
    def test_iota2d_rows_are_independent(self, d):
        assert _independent(build_iota2d(d))

    def test_extension_reuses_the_kept_complement(self, monkeypatch):
        E = build_iota2d(5)
        C = orthogonal_complement(E)

        def refuse(m):
            raise AssertionError("the complement was computed again")

        monkeypatch.setattr(embeddings, "kernel_basis", refuse)
        r = extend_isometry(E, _e8_block_swap_in_lambda2d())
        assert C.basis @ r == C.basis


@contextlib.contextmanager
def _eliminations():
    """Count the symmetric eliminations that validate Grams, by rank."""
    calls = []
    kernel = linalg._symmetric_elimination

    def counted(m):
        calls.append(m.nrows)
        return kernel(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_symmetric_elimination", counted)
        yield calls


class TestKeptLattice:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5000))
    def test_iota2d_lattice_is_the_induced_lattice(self, d):
        E = build_iota2d(d)
        kept, fresh = as_lattice(E), make_lattice(induced_gram(E))
        assert kept.gram == fresh.gram and kept.det == fresh.det
        assert signature(kept) == signature(fresh) == Signature(2, 19)
        assert kept.label is None and as_lattice(E) is kept

    def test_extension_of_iota2d_runs_no_elimination(self):
        E = build_iota2d(7)
        with _eliminations() as calls:
            extend_isometry(E, _e8_block_swap_in_lambda2d())
        assert calls == []

    def test_label_gives_a_relabelled_copy(self):
        E = build_iota2d(3)
        named = as_lattice(E, "x")
        assert named.label == "x" and named.gram == as_lattice(E).gram
        assert as_lattice(E).label is None

    def test_degenerate_restriction_is_refused(self):
        with pytest.raises(Degenerate):
            as_lattice(SublatticeEmbedding(standard("U"), [[1, 0]]))

    def test_congruence_gram_skips_the_symmetry_test(self, monkeypatch):
        # B·G·Bᵀ is symmetric by construction; make_lattice still tests it
        E = SublatticeEmbedding(standard("LambdaK3"), IntMatrix([[0] * 16 + [1, 5] + [0] * 4]))
        C = orthogonal_complement(E)

        def refuse(self):
            raise AssertionError("a symmetry test of a congruence Gram")

        monkeypatch.setattr(IntMatrix, "is_symmetric", refuse)
        L = as_lattice(C)
        assert (L.det, signature(L)) == (-10, Signature(2, 19))
        with pytest.raises(AssertionError, match="symmetry test"):
            make_lattice(L.gram)

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(embeddings_in())
    def test_public_embedding_validates_its_gram_once(self, E):
        assume(det_exact(induced_gram(E)) != 0)
        with _eliminations() as calls:
            first = as_lattice(E)
            assert as_lattice(E, "y").label == "y"
            assert as_lattice(E) is first
        assert calls == [E.rank]


class TestOrthogonalComplement:
    def test_diagonal_plane_in_double_hyperbolic(self):
        E = SublatticeEmbedding(UU, IntMatrix([[1, 1, 0, 0], [0, 0, 1, 1]]))
        C = orthogonal_complement(E)
        assert induced_gram(C).tolist() == [[-2, 0], [0, -2]]

    def test_norm_vector_in_k3_lattice(self):
        k3 = standard("LambdaK3")
        for d in (1, 2, 7):
            # v = e + d·f in the first hyperbolic plane (coordinates 16, 17)
            v = [0] * 22
            v[16], v[17] = 1, d
            assert pair(k3.gram, v, v) == 2 * d
            C = orthogonal_complement(SublatticeEmbedding(k3, IntMatrix([v])))
            lat = as_lattice(C)
            assert lat.rank == 21
            assert signature(lat) == Signature(2, 19)
            assert abs(lat.det) == 2 * d

    def test_complement_of_everything(self):
        E = SublatticeEmbedding(UU, IntMatrix.identity(4))
        assert orthogonal_complement(E).rank == 0

    def test_empty_basis(self):
        # the complement of nothing is everything; the empty basis is saturated
        for L in (standard("gen", 3), UU, standard("E8", -1), standard("LambdaK3")):
            n = L.rank
            E = SublatticeEmbedding(L, IntMatrix([], ncols=n))
            assert orthogonal_complement(E).basis == IntMatrix.identity(n)
            assert saturate(E).basis == IntMatrix([], ncols=n)
            assert saturation_index(E) == 1 and is_primitive(E)

    def test_double_complement_equals_saturation(self):
        # the ambient form is non-degenerate, so the double complement is
        # exactly the saturation, degenerate restrictions included
        rng = random.Random(17)
        done = 0
        while done < 40:
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(1, 3))]
            try:
                E = SublatticeEmbedding(UU, IntMatrix(rows, ncols=4))
            except BadParameter:
                continue
            sat = saturate(E)
            dd = orthogonal_complement(orthogonal_complement(E))
            assert dd.basis == sat.basis
            if is_primitive(E):
                assert dd.rank == E.rank
            assert dd.rank + orthogonal_complement(E).rank == 4
            done += 1


class TestVectorEnumeration:
    def test_root_count_and_lex_least(self):
        e8m = standard("E8", -1)
        assert count_norm_vectors(e8m, -2) == 240
        v = find_primitive_vector(e8m, -2)
        assert pair(e8m.gram, v, v) == -2
        assert v == find_primitive_vector(e8m, -2)  # deterministic

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            find_primitive_vector(standard("E8", -1), -3)

    def test_rank_one_has_no_primitive_representation(self):
        # -2k² are the only represented values; -8 needs k = 2, never primitive
        with pytest.raises(NotRepresented):
            find_primitive_vector(standard("gen", -2), -8)

    def test_wrong_sign(self):
        with pytest.raises(NotRepresented):
            find_primitive_vector(standard("E8", -1), 2)
        assert count_norm_vectors(standard("E8", -1), 2) == 0

    def test_indefinite_rejected(self):
        with pytest.raises(NotDefinite):
            find_primitive_vector(standard("U"), 2)

    def test_count_matches_theta_series(self):
        # theta series of the positive E8 lattice: r(2) = 240, r(4) = 2160
        e8 = standard("E8")
        assert count_norm_vectors(e8, 2) == 240
        assert count_norm_vectors(e8, 4) == 2160

    def test_search_cap(self):
        # E8 at norm 10 visits 99,009 nodes, under the cap; gen(1) at norm 10¹²
        # would visit a leaf for each of 2·10⁶ + 1 values of its one coordinate
        assert count_norm_vectors(standard("E8"), 10) == 240 * (1 + 5**3)  # 240·σ₃(5)
        with pytest.raises(TooLarge, match="visited 200000 nodes"):
            count_norm_vectors(standard("gen", 1), 10**12)

    def test_rank_zero(self):
        # ℤ⁰ holds one vector, (), and its norm is 0
        g = IntMatrix([], ncols=0)
        assert list(embeddings._norm_vectors(g, 0)) == [()]
        assert list(embeddings._norm_vectors(g, 2)) == []
        assert count_norm_vectors(make_lattice(g), 0) == 1
        assert count_norm_vectors(make_lattice(g), 2) == 0


class TestIota2d:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 12, 37])
    def test_construction_invariants(self, d):
        E = build_iota2d(d)
        assert E.ambient.rank == 28
        assert induced_gram(E) == standard("Lambda2d", d).gram
        assert is_primitive(E)
        C = orthogonal_complement(E)
        assert C.rank == 7
        F = discriminant_form(as_lattice(C))
        assert F.order == 2 * d
        assert disc_form_isomorphic(F, discriminant_form(standard("gen", -2 * d)), negate=True)

    def test_d1_complement_is_e7_like(self):
        C = orthogonal_complement(build_iota2d(1))
        lat = as_lattice(C)
        assert lat.rank == 7 and abs(lat.det) == 2

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            build_iota2d(0)

    def test_self_check_raises_with_data(self, monkeypatch):
        # the Gram self-check is an explicit check, not an assert, so it also
        # runs under python -O and reports what it compared
        wrong = IntMatrix.zero(21, 21)
        monkeypatch.setattr(embeddings, "_congruence", lambda B, G: wrong)  # B·G·Bᵀ, the induced Gram
        with pytest.raises(InvariantViolation) as info:
            build_iota2d(3)
        assert info.value.data["d"] == 3 and info.value.data["induced"] == wrong
        assert info.value.data["expected"] == standard("Lambda2d", 3).gram


class TestConstructedIotaComplement:
    """build_iota2d fills the complement from the 8×1 column G₈·vᵀ: it must
    be the HNF basis that the generic kernel of (B·G)ᵀ gives, row for row.
    It fills the saturation index with gcd(v), which must be the product
    of the invariant factors the S-only Smith form gives."""

    def test_equals_the_generic_complement(self):
        for d in range(1, 1001):
            E = build_iota2d(d)
            assert E._complement is not None
            assert orthogonal_complement(E).basis == kernel_basis((E.basis @ E.ambient.gram).transpose())

    def test_building_runs_no_rank_28_kernel(self, monkeypatch):
        rows = []

        def watched(m):
            rows.append(m.nrows)
            return kernel_basis(m)

        monkeypatch.setattr(embeddings, "kernel_basis", watched)
        for d in (1, 37, 1000):
            orthogonal_complement(build_iota2d(d))
        assert rows == [8, 8, 8]

    def test_carried_index_is_the_smith_product(self):
        for d in range(1, 1001):
            E = build_iota2d(d)
            _, S, _ = linalg._smith(E.basis, False, False)
            assert E._index == prod(S[i][i] for i in range(E.rank)) == 1

    def test_is_primitive_runs_no_smith_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Smith form of iota2d")

        monkeypatch.setattr(embeddings, "_smith", refuse)
        for d in range(1, 1001):
            assert is_primitive(build_iota2d(d))


def _u_swap_in_lambda2d():
    # swap of the two hyperbolic-plane summands (coordinates 16..19)
    g = [[1 if i == j else 0 for j in range(21)] for i in range(21)]
    for i in (16, 17):
        g[i][i] = 0
        g[i + 2][i + 2] = 0
        g[i][i + 2] = 1
        g[i + 2][i] = 1
    return IntMatrix(g)


def _e8_block_swap_in_lambda2d():
    g = [[0] * 21 for _ in range(21)]
    for i in range(8):
        g[i][i + 8] = 1
        g[i + 8][i] = 1
    for i in range(16, 21):
        g[i][i] = 1
    return IntMatrix(g)


class TestIsometries:
    def test_identity(self):
        L = standard("Lambda2d", 2)
        ident = IntMatrix.identity(21)
        assert is_isometry(L, ident) and in_tilde_O(L, ident)

    def test_hyperbolic_swap(self):
        u = standard("U")
        g = IntMatrix([[0, 1], [1, 0]])
        assert is_isometry(u, g)
        assert det_exact(g) == -1
        assert in_tilde_O(u, g)  # trivial discriminant group

    def test_negation_moves_discriminant_classes(self):
        L = standard("gen", -6)
        g = IntMatrix([[-1]])
        assert is_isometry(L, g)
        assert not in_tilde_O(L, g)

    def test_non_isometry(self):
        assert not is_isometry(standard("U"), IntMatrix([[1, 1], [0, 1]]))

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            is_isometry(standard("U"), IntMatrix.identity(3))


class TestExtendIsometry:
    def test_identity_extends_to_identity(self):
        E = build_iota2d(2)
        assert extend_isometry(E, IntMatrix.identity(21)) == IntMatrix.identity(28)

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            extend_isometry(build_iota2d(2), IntMatrix.identity(20))

    def test_non_isometry_rejected(self):
        E = SublatticeEmbedding(UU, IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0]]))
        with pytest.raises(NotAnIsometry):
            extend_isometry(E, IntMatrix([[1, 1], [0, 1]]))

    def test_e8_block_swap_extends(self):
        E = build_iota2d(3)
        g = _e8_block_swap_in_lambda2d()
        L = standard("Lambda2d", 3)
        assert is_isometry(L, g) and det_exact(g) == 1 and in_tilde_O(L, g)
        r = extend_isometry(E, g)
        sharp = standard("LambdaSharp")
        assert r @ sharp.gram @ r.transpose() == sharp.gram
        assert det_exact(r) == 1
        # restriction to the image is g: basis rows transform by g
        assert E.basis.to_rat() @ r.to_rat() == (g @ E.basis).to_rat()

    def test_u_swap_inside_one_plane_is_improper(self):
        E = build_iota2d(1)
        g = [[1 if i == j else 0 for j in range(21)] for i in range(21)]
        g[16][16] = g[17][17] = 0
        g[16][17] = g[17][16] = 1
        with pytest.raises(NotSpecialOrthogonal):
            extend_isometry(E, IntMatrix(g))

    def test_discriminant_action_blocks_extension(self):
        # e↔f swap in one hyperbolic plane (det -1) combined with -1 on
        # the gen(-2d) summand (det -1) lies in SO but negates the
        # discriminant generator, so the extension is non-integral
        E = build_iota2d(3)
        g = [[1 if i == j else 0 for j in range(21)] for i in range(21)]
        g[16][16] = g[17][17] = 0
        g[16][17] = g[17][16] = 1
        g[20][20] = -1
        gm = IntMatrix(g)
        L = standard("Lambda2d", 3)
        assert is_isometry(L, gm) and det_exact(gm) == 1
        assert not in_tilde_O(L, gm)
        with pytest.raises(NotInTildeO):
            extend_isometry(E, gm)

    def test_homomorphism_property(self):
        E = build_iota2d(2)
        g1 = _e8_block_swap_in_lambda2d()
        g2 = _u_swap_in_lambda2d()
        r1 = extend_isometry(E, g1)
        r2 = extend_isometry(E, g2)
        assert extend_isometry(E, g1 @ g2) == r1 @ r2
        assert extend_isometry(E, g2 @ g1) == r2 @ r1
