"""The one unchecked builder, ``lattice._trusted``, against the checked constructors.

Each value type the package builds without checks (``Lattice``,
``DiscriminantForm``, ``SublatticeEmbedding``, ``GlueSubgroup`` and
``QuadScalar``) is built here both ways on the same data: the two objects
must compare equal, hash equal and print alike, and give the same facts
when read, whether the trusted one carries a fact from its construction or
computes it on first read.  A fact kept once computed is a class attribute
that defaults to None, stored in the instance by its reader.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from quadlat.embeddings import (
    SublatticeEmbedding,
    as_lattice,
    build_iota2d,
    orthogonal_complement,
    saturate,
    saturation_index,
)
from quadlat.glue import GlueSubgroup, _glue_basis, glue_order, isotropic_subgroups, overlattice_from_glue
from quadlat.lattice import (
    DiscriminantForm,
    Lattice,
    _relabelled,
    _trusted,
    direct_sum,
    disc_form_isomorphic,
    discriminant_form,
    discriminant_group,
    make_lattice,
    signature,
    standard,
)
from quadlat.linalg import IntMatrix, smith_normal_form
from quadlat.periods import PeriodVector, QuadScalar, _plane, period_pairing, validate_period

from sample_lattices import pool_lattices, random_even_lattice


def _same_value(trusted, checked):
    assert trusted == checked and hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)


def _same_lattice(trusted, checked):
    # equal values that read the same det, signature and discriminant group
    _same_value(trusted, checked)
    assert (trusted.label, trusted.det, signature(trusted)) == (checked.label, checked.det, signature(checked))
    assert discriminant_group(trusted) == discriminant_group(checked)


def _trusted_lattices():
    # lattices that package builders make through _trusted, each with its facts
    rng = random.Random(28)
    parts = [random_even_lattice(rng) for _ in range(6)]
    yield from (standard("Lambda2d", d) for d in (1, 7, 37, 1000))
    yield from (standard("gen", k) for k in (-12, -1, 1, 2, 5))
    yield from (standard(name) for name in ("LambdaSharp", "LambdaK3"))
    yield from (direct_sum(a, b) for a, b in zip(parts, parts[1:]))
    yield _relabelled(standard("Lambda2d", 5), "L")
    yield as_lattice(build_iota2d(7))
    yield as_lattice(orthogonal_complement(build_iota2d(7)))
    for L in (standard("U", 2), direct_sum(standard("U", 2), standard("U", 2))):
        yield from (overlattice_from_glue(G) for G in isotropic_subgroups(discriminant_form(L)))


def _embeddings():
    # (trusted, checked) pairs on one ambient and basis
    k3 = standard("LambdaK3")
    polarization = [0] * 16 + [1, 5] + [0] * 4
    imprimitive = SublatticeEmbedding(k3, IntMatrix([[2 * x for x in polarization]]))
    trusted = [build_iota2d(d) for d in (1, 7, 37)]
    trusted += [orthogonal_complement(E) for E in (build_iota2d(7), SublatticeEmbedding(k3, [polarization]))]
    trusted += [saturate(imprimitive), _trusted(SublatticeEmbedding, ambient=k3, basis=imprimitive.basis)]
    uu = direct_sum(standard("U"), standard("U"))
    half = Fraction(1, 2)
    trusted.append(_plane(validate_period(PeriodVector(uu, -2, (half, 1, 0, 0), (0, 0, half, half)))))
    return [(E, SublatticeEmbedding(E.ambient, E.basis)) for E in trusted]


class TestTrustedBuilder:
    def test_fields_as_given(self):
        L = _trusted(Lattice, gram=IntMatrix([[2]]), det=2)
        assert vars(L) == {"gram": IntMatrix([[2]]), "det": 2}
        assert L.label is None and L._group is None  # the class defaults
        # a relabelled copy holds every field and fact of the original but its label
        gen6 = standard("gen", 6)
        assert vars(_relabelled(gen6, "six")) == {**vars(gen6), "label": "six"} and gen6._group is not None

    def test_lattices(self):
        for L in _trusted_lattices():
            _same_lattice(L, make_lattice(L.gram, L.label))

    def test_discriminant_forms(self):
        for L in pool_lattices():
            F = discriminant_form(L)
            checked = DiscriminantForm(F.group, F.q_values, F.b_values, L)
            _same_value(F, checked)
            assert (F.q_values, F.b_values, F._exponent) == (checked.q_values, checked.b_values, checked._exponent)
            assert disc_form_isomorphic(F, checked)
            assert isotropic_subgroups(F) == isotropic_subgroups(checked)

    def test_sublattice_embeddings(self):
        for E, checked in _embeddings():
            _same_value(E, checked)
            _same_lattice(as_lattice(E), as_lattice(checked))
            _same_lattice(as_lattice(E, "S"), as_lattice(checked, "S"))
            C, C_checked = orthogonal_complement(E), orthogonal_complement(checked)
            _same_value(C, C_checked)
            _same_lattice(as_lattice(C), as_lattice(C_checked))
            _, S, _ = smith_normal_form(E.basis)
            assert saturation_index(E) == saturation_index(checked) == prod(S[i][i] for i in range(E.rank))

    def test_glue_subgroups(self):
        rng = random.Random(29)
        bases = [standard("U", 2), standard("U", 6), *(random_even_lattice(rng) for _ in range(20))]
        for L in bases:
            for G in isotropic_subgroups(discriminant_form(L)):
                checked = GlueSubgroup(L, G.generators)
                _same_value(G, checked)
                assert _glue_basis(G) == _glue_basis(checked) and glue_order(G) == glue_order(checked)
                _same_lattice(overlattice_from_glue(G), overlattice_from_glue(checked))

    @pytest.mark.parametrize("d", [-1, -5, -163])
    def test_quad_scalars(self, d):
        x, y = QuadScalar(Fraction(1, 2), -3, d), QuadScalar(4, Fraction(2, 7), d)
        trusted = [x + y, x - y, x * y, -x, x.conjugate()]
        trusted.append(_trusted(QuadScalar, a=Fraction(5), b=Fraction(-1, 3), d=d))
        omega = PeriodVector(standard("U"), d, (1, Fraction(1, 2)), (0, 1))
        trusted.append(period_pairing(omega, (3, 1), (Fraction(-1, 4), 2)))
        for z in trusted:
            checked = QuadScalar(z.a, z.b, z.d)
            _same_value(z, checked)
            assert (type(z.a), type(z.b)) == (Fraction, Fraction)
            assert (z.is_rational(), z.is_zero()) == (checked.is_rational(), checked.is_zero())
            assert z * x == checked * x and z.conjugate() == checked.conjugate()

    def test_kept_facts_are_class_defaults_until_read(self):
        L = make_lattice([[2, 1], [1, 2]])
        assert "_group" not in vars(L) and L._group is None
        A = discriminant_group(L)
        assert vars(L)["_group"] is A is discriminant_group(L)
        E = SublatticeEmbedding(standard("U", 2), [[2, 0]])
        assert not {"_complement", "_lattice", "_index", "_source"} & set(vars(E))
        assert saturation_index(E) == 2 and vars(E)["_index"] == 2
        G = isotropic_subgroups(discriminant_form(standard("U", 2)))[1]
        assert "_basis" not in vars(G)
        basis = _glue_basis(G)
        assert vars(G)["_basis"] is basis is _glue_basis(G)
