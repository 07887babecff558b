import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from quadlat import embeddings, periods
from quadlat.cli import run
from quadlat.errors import (
    BadParameter,
    NotIsotropic,
    NotPositive,
    TooLarge,
    WrongSignature,
)
from quadlat.lattice import direct_sum, disc_form_isomorphic, discriminant_form, pair, standard
from quadlat.linalg import IntMatrix, det_exact
from quadlat.embeddings import (
    SublatticeEmbedding,
    as_lattice,
    induced_gram,
    is_primitive,
    orthogonal_complement,
    saturate,
)
from quadlat.periods import (
    PeriodVector,
    QuadScalar,
    minimal_hodge_sublattice,
    neron_severi,
    pairing_with_conjugate,
    period_from_json,
    period_pairing,
    period_to_json,
    transcendental,
    validate_period,
)

UU = direct_sum(standard("U"), standard("U"))
OMEGA = PeriodVector(UU, -1, (1, 1, 0, 0), (0, 0, 1, 1))


def unimodular_transform(rng, n, steps=12):
    """Random product of elementary integer row operations (det ±1)."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-2, -1, 1, 2])
        for col in range(n):
            m[i][col] += k * m[j][col]
    return IntMatrix(m)


def transformed_period(rng, omega):
    """Rewrite the period in a random new basis of the same lattice."""
    n = omega.lattice.rank
    p = unimodular_transform(rng, n)
    # new basis rows are P in old coordinates: Gram P·G·Pᵀ, coords x ↦ x·P^{-1}
    from quadlat.linalg import solve_rational, RatMatrix

    new_gram = p @ omega.lattice.gram @ p.transpose()
    pinv = solve_rational(p, IntMatrix.identity(n))
    re = (RatMatrix([omega.re]) @ pinv)[0]
    im = (RatMatrix([omega.im]) @ pinv)[0]
    from quadlat.lattice import make_lattice

    return PeriodVector(make_lattice(new_gram), omega.d, tuple(re), tuple(im))


class TestQuadScalar:
    def test_arithmetic(self):
        x = QuadScalar(Fraction(1), Fraction(2), -3)
        y = QuadScalar(Fraction(2), Fraction(-1), -3)
        assert x + y == QuadScalar(Fraction(3), Fraction(1), -3)
        # (1 + 2√-3)(2 - √-3) = 2 + 6 + (4 - 1)√-3 = 8 + 3√-3
        assert x * y == QuadScalar(Fraction(8), Fraction(3), -3)
        assert x.conjugate() == QuadScalar(Fraction(1), Fraction(-2), -3)
        assert (x * x.conjugate()).is_rational()

    def test_is_zero(self):
        # public API: a zero, a nonzero rational and an irrational value
        x = QuadScalar(Fraction(1, 2), Fraction(2, 3), -3)
        assert (x - x).is_zero() and QuadScalar(0, 0, -7).is_zero()
        assert not QuadScalar(Fraction(-5, 4), 0, -7).is_zero()
        assert not x.is_zero() and not QuadScalar(0, Fraction(1, 9), -3).is_zero()

    def test_field_validation(self):
        with pytest.raises(BadParameter):
            QuadScalar(Fraction(1), Fraction(1), 5)
        with pytest.raises(BadParameter):
            QuadScalar(Fraction(1), Fraction(1), -4)  # not squarefree
        with pytest.raises(BadParameter):
            QuadScalar(Fraction(1), Fraction(1), -3) + QuadScalar(Fraction(1), Fraction(1), -7)

    def test_arithmetic_does_not_retest_the_field(self, monkeypatch):
        x = QuadScalar(Fraction(1), Fraction(2), -3)
        y = QuadScalar(Fraction(2), Fraction(-1), -3)
        tests = []
        monkeypatch.setattr(periods, "_check_field_discriminant", tests.append)
        results = [x + y, x - y, x * y, -x, x.conjugate()]
        assert tests == []
        assert results[2] == QuadScalar(Fraction(8), Fraction(3), -3)
        assert tests == [-3]  # the explicit construction only


class TestSquarefreeDiscriminant:
    """Trial division up to the cube root, then one square test."""

    def _squarefree(self, m):
        try:
            periods._check_field_discriminant(-m)
        except BadParameter:
            return False
        return True

    def test_verdicts_match_factorint(self):
        sympy = pytest.importorskip("sympy")
        bound = periods.DISCRIMINANT_BOUND
        rng = random.Random(6)
        big_prime = lambda lo, hi: sympy.nextprime(rng.randint(lo, hi))  # noqa: E731
        values = [rng.randint(1, bound) for _ in range(300)]
        values += [rng.randint(1, 10**6) for _ in range(300)]
        for _ in range(60):
            p = big_prime(10**4, 10**5)  # near the cube root of the bound
            values.append(p * p * rng.randint(1, bound // (p * p)))
            q, r = big_prime(10**7, 3 * 10**7), big_prime(10**7, 3 * 10**7)
            values += [q * r, q * q, p * q]  # cofactors with two prime factors
        values += [1, 2, 4, 8, 12, bound, sympy.prevprime(bound)]
        for m in values:
            assert m <= bound
            expected = all(e == 1 for e in sympy.factorint(m).values())
            assert self._squarefree(m) == expected, m

    def test_worst_case_is_quick(self):
        start = time.perf_counter()
        assert self._squarefree(999999999999989)  # a prime just below the bound
        assert time.perf_counter() - start < 0.5

    def test_above_bound_is_too_large(self):
        with pytest.raises(TooLarge):
            periods._check_field_discriminant(-periods.DISCRIMINANT_BOUND - 1)
        with pytest.raises(BadParameter):
            periods._check_field_discriminant(periods.DISCRIMINANT_BOUND + 1)  # positive comes first


class TestValidatePeriod:
    def test_double_hyperbolic_example(self):
        validate_period(OMEGA)
        assert pairing_with_conjugate(OMEGA) == 4

    def test_not_isotropic(self):
        with pytest.raises(NotIsotropic):
            validate_period(PeriodVector(UU, -1, (1, 0, 0, 0), (0, 1, 0, 0)))

    def test_wrong_signature(self):
        with pytest.raises(WrongSignature):
            validate_period(PeriodVector(standard("E8", -1), -1, (1,) * 8, (1,) * 8))

    def test_not_positive(self):
        # re = e1 - f1, im = e2 - f2 spans an isotropic-for-q negative
        # plane: psi(omega, conj) = -4
        om = PeriodVector(UU, -1, (1, -1, 0, 0), (0, 0, 1, -1))
        with pytest.raises(NotPositive):
            validate_period(om)

    def test_totally_isotropic_plane_is_not_positive(self):
        # re = e1, im = e2 span a totally isotropic plane: psi(omega, conj) = 0,
        # which is not positive either
        om = PeriodVector(UU, -1, (1, 0, 0, 0), (0, 0, 1, 0))
        with pytest.raises(NotPositive):
            pairing_with_conjugate(om)

    def test_vanishing_im_rejected_at_construction(self):
        with pytest.raises(BadParameter):
            PeriodVector(UU, -1, (1, 1, 0, 0), (0, 0, 0, 0))

    def test_period_on_one_summand_rejected_without_ns_output(self):
        # omega = e + sqrt(-1)·f on the hyperbolic summand of U + E8(-1):
        # invalid (the plus-part is 1 and psi(omega, omega) != 0), so the
        # splitting pipeline must refuse before producing any NS data
        from quadlat.errors import QuadLatError

        L = direct_sum(standard("U"), standard("E8", -1))
        om = PeriodVector(L, -1, (1,) + (0,) * 9, (0, 1) + (0,) * 8)
        with pytest.raises(QuadLatError):
            neron_severi(om)

    def test_conjugate_pairing_is_rational_for_other_fields(self):
        # family: re = e + |D|·f in one plane, im = e + f in the other
        for d in (-1, -2, -3, -7, -11):
            om = PeriodVector(UU, d, (1, -d, 0, 0), (0, 0, 1, 1))
            validate_period(om)
            val = period_pairing(om, om.re, tuple(-x for x in om.im))
            assert val.is_rational() and val.a == -4 * d


def pairing_reference(omega, re2, im2):
    """ψ(ω, v) as four ``pair`` sums over Fractions, the rational and √d parts."""
    g = omega.lattice.gram
    rational = pair(g, omega.re, re2) + omega.d * pair(g, omega.im, im2)
    irrational = pair(g, omega.re, im2) + pair(g, omega.im, re2)
    return Fraction(rational), Fraction(irrational)


class TestPeriodPairing:
    """ψ(ω, v) is one integer product over the two denominators."""

    def test_agrees_with_fraction_reference(self):
        rng = random.Random(808)
        omegas = [OMEGA] + [transformed_period(rng, OMEGA) for _ in range(5)]
        omegas += [PeriodVector(UU, d, (1, -d, 0, 0), (0, 0, 1, 1)) for d in (-2, -3, -7)]
        coord = lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12))  # noqa: E731
        checked = 0
        for om in omegas:
            n = om.lattice.rank
            for _ in range(40):
                re2 = tuple(coord() for _ in range(n))
                im2 = tuple(coord() if rng.random() < 0.8 else 0 for _ in range(n))
                val = period_pairing(om, re2, im2)
                assert (val.a, val.b, val.d) == (*pairing_reference(om, re2, im2), om.d)
                checked += 1
        assert checked >= 300
        # integer coordinates give the same answer as their Fractions
        assert period_pairing(OMEGA, (1, 2, 3, 4), (0, 1, 0, 1)) == period_pairing(
            OMEGA, tuple(map(Fraction, (1, 2, 3, 4))), tuple(map(Fraction, (0, 1, 0, 1)))
        )

    def test_wrong_length_refused(self):
        for re2, im2 in [((1, 0, 0), (0, 0, 1)), ((1, 0, 0, 0, 7), (0, 0, 1, 0, 0)),
                         ((1, 0, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1, 0))]:
            with pytest.raises(BadParameter):
                period_pairing(OMEGA, re2, im2)

    def test_field_is_not_retested(self, monkeypatch):
        tests = []
        monkeypatch.setattr(periods, "_check_field_discriminant", tests.append)
        val = period_pairing(OMEGA, OMEGA.re, tuple(-x for x in OMEGA.im))
        assert tests == []
        assert val == QuadScalar(Fraction(4), Fraction(0), -1)


class TestNeronSeveri:
    def test_example_split(self):
        ns = neron_severi(OMEGA)
        assert ns.basis.tolist() == [[1, -1, 0, 0], [0, 0, 1, -1]]
        assert induced_gram(ns).tolist() == [[-2, 0], [0, -2]]
        assert is_primitive(ns)

    def test_rank_count(self):
        # re and im are independent for any valid period, so the algebraic
        # part always has corank 2 and the transcendental part rank 2
        rng = random.Random(404)
        for _ in range(15):
            om = transformed_period(rng, OMEGA)
            validate_period(om)
            assert neron_severi(om).rank == om.lattice.rank - 2
            assert transcendental(om).trans.rank == 2

    def test_scaling_invariance(self):
        c = Fraction(5, 3)
        om = PeriodVector(
            UU, -1, tuple(c * x for x in OMEGA.re), tuple(c * x for x in OMEGA.im)
        )
        assert neron_severi(om).basis == neron_severi(OMEGA).basis


class TestTranscendental:
    def test_example_split(self):
        split = transcendental(OMEGA)
        assert split.trans.basis.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]
        assert induced_gram(split.trans).tolist() == [[2, 0], [0, 2]]
        assert split.ns.rank + split.trans.rank == 4

    def test_sign_relation_on_example(self):
        split = transcendental(OMEGA)
        q_t = discriminant_form(as_lattice(split.trans))
        q_ns = discriminant_form(as_lattice(split.ns))
        assert disc_form_isomorphic(q_t, q_ns, negate=True)
        assert q_t.q_values == (Fraction(1, 2), Fraction(1, 2))

    def test_orthogonality_and_ranks_under_base_change(self):
        rng = random.Random(2024)
        for _ in range(15):
            om = transformed_period(rng, OMEGA)
            split = transcendental(om)
            g = om.lattice.gram
            for i in range(split.ns.rank):
                for j in range(split.trans.rank):
                    from quadlat.lattice import pair

                    assert pair(g, split.ns.basis[i], split.trans.basis[j]) == 0
            assert split.ns.rank + split.trans.rank == om.lattice.rank

    def test_full_transcendental_when_ns_is_zero(self):
        L = direct_sum(standard("gen", 2), standard("gen", 2))
        om = PeriodVector(L, -1, (1, 0), (0, 1))
        split = transcendental(om)
        assert split.ns.rank == 0
        assert split.trans.basis == IntMatrix.identity(2)


class TestMinimalHodgeSublattice:
    def test_example_equals_transcendental(self):
        assert minimal_hodge_sublattice(OMEGA).basis == transcendental(OMEGA).trans.basis

    def test_saturation_of_own_span(self):
        # re, im span a primitive coordinate plane: the plane itself comes back
        L = direct_sum(standard("gen", 2), standard("gen", 2), standard("gen", -2))
        om = PeriodVector(L, -1, (1, 0, 0), (0, 1, 0))
        mh = minimal_hodge_sublattice(om)
        assert mh.basis.tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_scaling_invariance(self):
        om = PeriodVector(
            UU, -1, tuple(Fraction(7, 2) * x for x in OMEGA.re),
            tuple(Fraction(7, 2) * x for x in OMEGA.im),
        )
        assert minimal_hodge_sublattice(om).basis == minimal_hodge_sublattice(OMEGA).basis

    def test_agreement_under_base_change(self):
        # the theorem both splits rest on: the plane P of a valid period is
        # positive definite, so the form on NS = P^⊥ ∩ L is non-degenerate,
        # the complement of NS is P ∩ L, the saturated plane, and ω lies in
        # the rational span of T
        rng = random.Random(55)
        e8u = direct_sum(UU, standard("E8", -1))
        mixed = direct_sum(standard("gen", 2), standard("gen", 6), standard("An", 3, -1))
        bases = [
            OMEGA,
            PeriodVector(UU, -2, (1, 2, 0, 0), (0, 0, 1, 1)),
            PeriodVector(e8u, -1, (1, 1) + (0,) * 10, (0, 0, 1, 1) + (0,) * 8),
            PeriodVector(e8u, -7, (1, 7) + (0,) * 10, (0, 0, 1, 1) + (0,) * 8),
            PeriodVector(mixed, -3, (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)),
        ]
        checked = 0
        for base in bases:
            for step in range(12):
                om = base if step == 0 else transformed_period(rng, base)
                if step % 3 == 2:
                    c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                    om = PeriodVector(om.lattice, om.d, tuple(c * x for x in om.re), tuple(c * x for x in om.im))
                split = transcendental(om)
                if split.ns.rank:
                    assert det_exact(induced_gram(split.ns)) != 0
                den = lcm(*(x.denominator for x in om.re + om.im))
                plane = SublatticeEmbedding(om.lattice, [[int(x * den) for x in row] for row in (om.re, om.im)])
                minimal = minimal_hodge_sublattice(om)
                assert orthogonal_complement(split.ns).basis == saturate(plane).basis == minimal.basis
                zero = (0,) * om.lattice.rank
                assert all(period_pairing(om, v, zero).is_zero() for v in orthogonal_complement(split.trans).basis)
                checked += 1
        assert checked == 60

    def test_one_route_per_split(self, monkeypatch):
        # each split takes two kernels and no determinant: the algebraic
        # part and its complement, or the plane's saturation
        calls = Counter()
        for module, name in ((embeddings, "kernel_basis"), (embeddings, "det_exact"), (periods, "det_exact")):
            if hasattr(module, name):
                def counted(m, _original=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _original(m)

                monkeypatch.setattr(module, name, counted)
        e8u = direct_sum(UU, standard("E8", -1))
        for om in (OMEGA, PeriodVector(e8u, -1, (1, 1) + (0,) * 10, (0, 0, 1, 1) + (0,) * 8)):
            calls.clear()
            transcendental(om)
            assert calls == {"kernel_basis": 2}
            calls.clear()
            minimal_hodge_sublattice(om)
            assert calls == {"kernel_basis": 2}

    def test_plane_skips_the_checked_constructor(self, monkeypatch, capsys, tmp_path):
        # validation proves re and im independent, so neither the algebraic
        # part nor the span closure runs the det(B·Bᵀ) check on the plane
        checked = []
        post_init = SublatticeEmbedding.__post_init__
        monkeypatch.setattr(SublatticeEmbedding, "__post_init__", lambda E: checked.append(E) or post_init(E))
        assert minimal_hodge_sublattice(OMEGA).basis == transcendental(OMEGA).trans.basis
        f = tmp_path / "period.json"
        f.write_text(json.dumps(period_to_json(OMEGA)))
        assert run(["--json", "period-split", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["minimal_hodge_equals_trans"] is True
        assert checked == []

    @pytest.mark.parametrize("omega, error", [
        (PeriodVector(UU, -1, (1, 0, 0, 0), (0, 1, 0, 0)), NotIsotropic),
        (PeriodVector(standard("E8", -1), -1, (1,) * 8, (1,) * 8), WrongSignature),
        (PeriodVector(UU, -1, (1, -1, 0, 0), (0, 0, 1, -1)), NotPositive),
        (PeriodVector(UU, -1, (1, 0, 0, 0), (0, 0, 1, 0)), NotPositive),
        # re = im: a dependent plane is isotropic, so it is refused as not positive
        (PeriodVector(UU, -1, (1, 0, 0, 0), (1, 0, 0, 0)), NotPositive),
    ])
    def test_invalid_periods_raise_before_the_plane(self, omega, error):
        for split in (neron_severi, transcendental, minimal_hodge_sublattice):
            with pytest.raises(error):
                split(omega)


class TestSignRelationOnGeneratedSplits:
    def test_random_primitive_splits_of_unimodular_lattices(self):
        # complement pairs inside even unimodular ambients carry opposite forms
        rng = random.Random(777)
        ambients = [UU, direct_sum(standard("U"), standard("U"), standard("U"))]
        done = 0
        while done < 20:
            amb = rng.choice(ambients)
            n = amb.rank
            k = rng.randint(1, n // 2)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            try:
                E = saturate(SublatticeEmbedding(amb, IntMatrix(rows, ncols=n)))
            except BadParameter:
                continue
            if det_exact(induced_gram(E)) == 0 or abs(det_exact(induced_gram(E))) > 40:
                continue
            comp = orthogonal_complement(E)
            F1 = discriminant_form(as_lattice(E))
            F2 = discriminant_form(as_lattice(comp))
            assert disc_form_isomorphic(F1, F2, negate=True)
            done += 1


class TestPeriodJson:
    def test_round_trip(self):
        payload = json.dumps(period_to_json(OMEGA))
        assert period_from_json(json.loads(payload)) == OMEGA

    def test_fraction_strings(self):
        om = PeriodVector(UU, -2, (Fraction(1, 2), 1, 0, 0), (0, 0, Fraction(-2, 3), 1))
        data = period_to_json(om)
        assert data["re"][0] == "1/2" and data["im"][2] == "-2/3"
        assert period_from_json(data) == om

    def test_malformed_rejected(self):
        with pytest.raises(BadParameter):
            period_from_json({"lattice": {"gram": [[2]]}, "D": -1, "re": ["x"], "im": ["1"]})

    def test_rational_strings(self):
        data = {"lattice": {"gram": [[2]]}, "D": -1, "re": ["1"], "im": ["-2/3"]}
        om = period_from_json(data)
        assert om.re == (Fraction(1),) and om.im == (Fraction(-2, 3),)
        assert period_from_json(data | {"re": ["1.5"]}).re == (Fraction(3, 2),)

    @pytest.mark.parametrize("text", ["1e1000000000", "2E3", "1.5e-2"])
    def test_exponent_notation_rejected(self, text):
        with pytest.raises(BadParameter, match="exponent notation"):
            period_from_json({"lattice": {"gram": [[2]]}, "D": -1, "re": [text], "im": ["1"]})
