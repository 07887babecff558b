"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All checks are exact; the only tolerances are the wall-clock budgets
stated alongside the criteria.
"""

import random
import time

import pytest

from quadlat.lattice import (
    Signature,
    direct_sum,
    disc_form_isomorphic,
    discriminant_form,
    discriminant_group,
    is_even,
    min_generators,
    pair,
    signature,
    standard,
)
from quadlat.linalg import IntMatrix, det_exact, hermite_normal_form, smith_normal_form
from quadlat.embeddings import (
    SublatticeEmbedding,
    as_lattice,
    build_iota2d,
    count_norm_vectors,
    induced_gram,
    is_primitive,
    nikulin_check,
    orthogonal_complement,
    saturate,
)
from quadlat.glue import even_overlattices, isotropic_subgroups, subgroup_elements
from quadlat.periods import PeriodVector, minimal_hodge_sublattice, pairing_with_conjugate, transcendental
from quadlat.brauer import brauer_torsion_order, brute_force_points, minkowski_bound, nori_sandwich_check
from quadlat.brauer import CohomologyPair

from sample_lattices import random_even_lattice
from test_glue import brute_force_even_overlattices


def _report(number, label, t0, budget=None):
    elapsed = time.monotonic() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:>2}: PASS - {label} ({elapsed:.2f}s)")


def test_criterion_01_lambda2d_invariants():
    t0 = time.monotonic()
    for d in range(1, 201):
        L = standard("Lambda2d", d)
        assert L.rank == 21
        assert signature(L) == Signature(2, 19)
        assert is_even(L)
        dg = discriminant_group(L)
        assert dg.invariant_factors == (2 * d,)
        assert min_generators(dg) == 1
    _report(1, "Lambda2d(d) invariants for d in 1..200", t0, budget=10.0)


def test_criterion_02_nikulin_reduction():
    t0 = time.monotonic()
    for d in (1, 7, 100):
        L = standard("Lambda2d", d)
        for minus in range(19, 43):
            guaranteed = nikulin_check(L, Signature(2, minus)).guaranteed
            assert guaranteed == (minus in (26, 34, 42))
    _report(2, "embedding criterion reduces to minus in {26,34,42}", t0)


def test_criterion_03_iota2d_construction():
    t0 = time.monotonic()
    for d in range(1, 201):
        emb = build_iota2d(d)
        assert is_primitive(emb)
        comp = orthogonal_complement(emb)
        assert comp.rank == 7
        F = discriminant_form(as_lattice(comp))
        assert F.order == 2 * d
        assert disc_form_isomorphic(F, discriminant_form(standard("gen", -2 * d)), negate=True)
    _report(3, "iota2d primitive with rank-7 complement carrying -q for d in 1..200", t0, budget=60.0)


def test_criterion_04_polarization_complement():
    t0 = time.monotonic()
    k3 = standard("LambdaK3")
    for d in range(1, 51):
        v = [0] * 22
        v[16], v[17] = 1, d  # e + d·f in the first hyperbolic plane
        assert pair(k3.gram, v, v) == 2 * d
        comp = as_lattice(orthogonal_complement(SublatticeEmbedding(k3, IntMatrix([v]))))
        assert comp.rank == 21
        assert signature(comp) == Signature(2, 19)
        assert abs(comp.det) == 2 * d
    _report(4, "complement of a degree-2d polarization class for d in 1..50", t0)


def test_criterion_05_glue_oracle():
    t0 = time.monotonic()
    rng = random.Random(160451)
    for _ in range(50):
        L = random_even_lattice(rng, max_rank=4, max_det=50)
        subs = isotropic_subgroups(discriminant_form(L))
        mine = {
            frozenset(subgroup_elements(G)): M.gram
            for G, M in zip(subs, even_overlattices(L))
        }
        oracle = brute_force_even_overlattices(L)
        assert mine.keys() == oracle.keys()
        for key, gram in oracle.items():
            assert mine[key] == gram
    _report(5, "overlattice enumeration agrees with the all-subgroup scan, 50 randoms", t0)


def test_criterion_06_sign_relation():
    t0 = time.monotonic()
    uu = direct_sum(standard("U"), standard("U"))
    om = PeriodVector(uu, -1, (1, 1, 0, 0), (0, 0, 1, 1))
    split = transcendental(om)
    q_t = discriminant_form(as_lattice(split.trans))
    q_ns = discriminant_form(as_lattice(split.ns))
    assert disc_form_isomorphic(q_t, q_ns, negate=True)
    rng = random.Random(808)
    ambients = [uu, direct_sum(standard("U"), standard("U"), standard("U")),
                direct_sum(standard("E8", -1), standard("U"))]
    done = 0
    while done < 50:
        amb = rng.choice(ambients)
        n = amb.rank
        k = rng.randint(1, min(3, n - 1))
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        try:
            E = saturate(SublatticeEmbedding(amb, IntMatrix(rows, ncols=n)))
        except Exception:
            continue
        d = det_exact(induced_gram(E))
        if d == 0 or abs(d) > 40:
            continue
        comp = orthogonal_complement(E)
        F1 = discriminant_form(as_lattice(E))
        F2 = discriminant_form(as_lattice(comp))
        assert disc_form_isomorphic(F1, F2, negate=True)
        done += 1
    _report(6, "q_T = -q_NS on the period example and 50 unimodular splits", t0)


def test_criterion_07_period_pipeline():
    t0 = time.monotonic()
    uu = direct_sum(standard("U"), standard("U"))
    om = PeriodVector(uu, -1, (1, 1, 0, 0), (0, 0, 1, 1))
    assert pairing_with_conjugate(om) == 4
    split = transcendental(om)
    assert induced_gram(split.ns).tolist() == [[-2, 0], [0, -2]]
    assert induced_gram(split.trans).tolist() == [[2, 0], [0, 2]]
    assert minimal_hodge_sublattice(om).basis == split.trans.basis
    _report(7, "period pipeline on the double hyperbolic plane", t0)


def test_criterion_08_brauer_ladder():
    t0 = time.monotonic()
    K3 = standard("LambdaK3")
    for rho in range(1, 21):
        ns = SublatticeEmbedding(
            K3, IntMatrix([[1 if j == i else 0 for j in range(22)] for i in range(rho)], ncols=22)
        )
        P = CohomologyPair(K3, ns)
        for ell in (2, 3, 5):
            orders = [brauer_torsion_order(P, ell, n) for n in (1, 2, 3)]
            for n, order in zip((1, 2, 3), orders):
                assert order == ell ** (n * (22 - rho))
            assert orders[1] // orders[0] == ell ** (22 - rho)
            assert orders[2] // orders[1] == ell ** (22 - rho)
    _report(8, "Kummer torsion ladder for b2=22, rho in 1..20", t0)


def test_criterion_09_minkowski():
    t0 = time.monotonic()
    assert [minkowski_bound(n) for n in (1, 2, 3, 4)] == [2, 24, 48, 5760]
    fact = 1
    for n in range(1, 5):
        fact *= n
        assert minkowski_bound(n) % (2**n * fact) == 0
    _report(9, "Minkowski bounds 2, 24, 48, 5760 and signed-permutation divisibility", t0)


def test_criterion_10_nori_sandwich():
    t0 = time.monotonic()
    for ell in (3, 5, 7):
        for kind in ("special_linear", "symplectic"):
            count = brute_force_points(kind, 2, ell)
            assert count == ell**3 - ell
            assert nori_sandwich_check(count, 3, ell)
    _report(10, "column-search SL2/Sp2 counts hit ell^3 - ell inside the sandwich", t0, budget=30.0)


def test_criterion_11_e8_root_count():
    t0 = time.monotonic()
    assert count_norm_vectors(standard("E8", -1), -2) == 240
    _report(11, "240 vectors of norm -2 in E8(-1)", t0)


def test_criterion_12_linalg_property_suite():
    t0 = time.monotonic()
    rng = random.Random(271828)
    for _ in range(1000):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        U, S, V = smith_normal_form(m)
        assert U @ m @ V == S
        assert abs(det_exact(U)) == 1 and abs(det_exact(V)) == 1
        diag = [S[i][i] for i in range(min(r, c))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        H, T = hermite_normal_form(m)
        assert T @ m == H
        assert abs(det_exact(T)) == 1
        if r == c:
            prod = 1
            for d in diag:
                prod *= d
            assert abs(det_exact(m)) == prod
    _report(12, "1000-matrix SNF/HNF/det structural identity suite", t0, budget=30.0)
