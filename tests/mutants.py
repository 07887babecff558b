"""Mutants of the package that the test suite must kill.

Each entry of ``MUTANTS`` is (file, old text, new text, test id): a file
under the repository root, a piece of it that occurs there exactly once,
what the mutant puts in its place, and one test that must fail with the
mutant in.  Run from the repository root:

    python tests/mutants.py

It copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary
directory, runs every named test on that unchanged copy (each must pass),
then applies one mutant at a time to a fresh copy and runs its test there.
A mutant is killed when its test fails or errors, or runs past
``TIMEOUT_S`` seconds (a mutated loop that never ends).  The script exits
1 if a mutant survives, a test fails unmutated, or an old text does not
occur exactly once.  It is not collected as a test module.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

ORACLE = "tests/test_kernel_oracle.py"

MUTANTS = [
    (
        "src/quadlat/linalg.py",
        "            out_i[j] = out[j][i] = p\n",
        "            out_i[j] = p\n",
        f"{ORACLE}::TestTransformFreeCores::test_congruence_against_two_products",
    ),
    (
        "src/quadlat/linalg.py",
        "        for j in range(i, n):\n            p = 0\n",
        "        for j in range(i + 1, n):\n            p = 0\n",
        f"{ORACLE}::TestTransformFreeCores::test_is_isometry_refuses_near_isometries",
    ),
    (
        "src/quadlat/linalg.py",
        "    for r in mat[row:] if trans is None else mat[row:] + trans:\n",
        "    for r in mat[row + 1 :] if trans is None else mat[row:] + trans:\n",
        f"{ORACLE}::TestTransformFreeCores::test_small_or_rank_deficient",
    ),
    (
        "src/quadlat/linalg.py",
        "            if left:\n                U[t], U[pi] = U[pi], U[t]\n",
        "            if right:\n                U[t], U[pi] = U[pi], U[t]\n",
        f"{ORACLE}::TestTransformFreeCores::test_small_or_rank_deficient",
    ),
    (
        "src/quadlat/linalg.py",
        "            for i in range(prow):\n",
        "            for i in range(prow if transform else 0):\n",
        f"{ORACLE}::TestTransformFreeCores::test_small_or_rank_deficient",
    ),
    (
        "src/quadlat/glue.py",
        "    if r:\n        raise InvariantViolation(\"the overlattice det is not an integer\"",
        "    if False:\n        raise InvariantViolation(\"the overlattice det is not an integer\"",
        f"{ORACLE}::TestTrustedGluePath::test_overlattice_det_exactness_is_checked",
    ),
    # a glue subgroup keeps its Hermite basis, and glue_order is the one index formula
    (
        "src/quadlat/glue.py",
        "    if r:\n        raise InvariantViolation(\"the glue order is not an integer\"",
        "    if False:\n        raise InvariantViolation(\"the glue order is not an integer\"",
        f"{ORACLE}::TestTrustedGluePath::test_glue_order_exactness_is_checked",
    ),
    (
        "src/quadlat/glue.py",
        "        vars(G)[\"_basis\"] = (_frozen(H[:n], n), den)\n    return G._basis\n",
        "        return _frozen(H[:n], n), den\n    return G._basis\n",
        "tests/test_glue.py::TestOneHermiteFormPerSubgroup::test_overlattices_request_runs_one_per_subgroup",
    ),
    # trivial glue is L itself, checked even; other overlattice Grams are divided exactly by den²
    (
        "src/quadlat/glue.py",
        "        if not is_even(base):\n",
        "        if False:\n",
        "tests/test_glue.py::TestTrivialGlue::test_odd_base_is_refused",
    ),
    (
        "src/quadlat/glue.py",
        "    if G.generators.common_denominator() == 1:\n",
        "    if G.generators.common_denominator() <= 2:\n",
        "tests/test_glue.py::TestTrivialGlue::test_overlattices_match_the_rational_formula",
    ),
    (
        "src/quadlat/glue.py",
        "        if den == 1:\n            H = _ident_rows(n)\n",
        "        if den <= 2:\n            H = _ident_rows(n)\n",
        "tests/test_glue.py::TestIsotropicSubgroups::test_plus_minus_two",
    ),
    (
        "src/quadlat/glue.py",
        "    if any(p % dd for row in pairings for p in row):\n",
        "    if False:\n",
        "tests/test_glue.py::TestTrivialGlue::test_overlattices_match_the_rational_formula",
    ),
    # the search's b test is a dot product with a b row mod N, and a form with no isotropic element stops at once
    (
        "src/quadlat/glue.py",
        "sum(map(mul, coefficients[c], row)) % N == 0",
        "sum(map(mul, coefficients[c], row)) % (2 * N) == 0",
        "tests/test_glue.py::TestIsotropicCountsByFormula::test_u2_cubed",
    ),
    (
        "src/quadlat/glue.py",
        "    if T.q.count(0) == 1:  #",
        "    if T.q.count(0) <= 2:  #",
        "tests/test_glue.py::TestIsotropicSubgroups::test_plus_minus_two",
    ),
    # the one Bareiss step and the fraction-free back substitution, on dense systems
    (
        "src/quadlat/linalg.py",
        "        for j in range(k + 1, r):\n            if c := row[j]:\n",
        "        for j in range(k + 2, r):\n            if c := row[j]:\n",
        f"{ORACLE}::TestDeferredRescale::test_dense_systems",
    ),
    (
        "src/quadlat/linalg.py",
        "        x[cols[k]] = tuple([u // row[k] for u in acc])\n",
        "        x[cols[k]] = tuple([u // abs(row[k]) for u in acc])\n",
        f"{ORACLE}::TestDeferredRescale::test_dense_systems",
    ),
    (
        "src/quadlat/linalg.py",
        "                row_s[t] = (p * row_s[t] - c * row_k[t]) // q\n            frame[s] = p\n",
        "                row_s[t] = (p * row_s[t] - c * row_k[t]) // q\n        frame[s] = p\n",
        f"{ORACLE}::TestDeferredRescale::test_dense_systems",
    ),
    (
        "src/quadlat/linalg.py",
        "    width = range(k + 1, len(row_k))\n",
        "    width = range(k + 1, len(a))\n",
        f"{ORACLE}::TestDeferredRescale::test_dense_systems",
    ),
    # deferred rescales: a row's frame, the pivot row and the zero-pivot congruence
    (
        "src/quadlat/linalg.py",
        "            frame[s] = p\n",
        "            frame[s] = q\n",
        f"{ORACLE}::TestDeferredRescale::test_dense_systems",
    ),
    (
        "src/quadlat/linalg.py",
        "    if frame[k] != prev:\n        _rescale(row_k, k, prev, frame[k])\n",
        "    if False:\n        _rescale(row_k, k, prev, frame[k])\n",
        f"{ORACLE}::TestDeferredRescale::test_dense_systems",
    ),
    (
        "src/quadlat/linalg.py",
        "            frame[k], frame[swap] = frame[swap], frame[k]\n",
        "",
        f"{ORACLE}::TestDeferredRescale::test_swapped_rows_keep_their_frames",
    ),
    (
        "src/quadlat/linalg.py",
        "            for s in (k, j):\n",
        "            for s in (k,):\n",
        f"{ORACLE}::TestDeferredRescale::test_congruence_mixes_a_deferred_row",
    ),
    # unit rows solved outright; a second unit row on a taken column is one of the other rows
    (
        "src/quadlat/linalg.py",
        "    fixed = {j: (unit, b[i]) for j, (i, unit) in units.items()}",
        "    fixed = {j: (1, b[i]) for j, (i, unit) in units.items()}",
        f"{ORACLE}::TestUnitRows::test_signed_permutations",
    ),
    (
        "src/quadlat/linalg.py",
        "            if unit in row and (j := row.index(unit)) not in units:\n                units[j] = (i, unit)\n",
        "            if unit in row:\n                units.setdefault(row.index(unit), (i, unit))\n",
        f"{ORACLE}::TestUnitRows::test_two_unit_rows_on_one_column_are_singular",
    ),
    (
        "src/quadlat/linalg.py",
        "(j := row.index(unit)) not in units:",
        "(j := row.index(unit)) >= 0:",
        f"{ORACLE}::TestUnitRows::test_two_unit_rows_on_one_column_are_singular",
    ),
    # rows with one nonzero entry pair through column lists
    (
        "src/quadlat/linalg.py",
        "                ax = a * x\n",
        "                ax = abs(a) * x\n",
        f"{ORACLE}::TestTransformFreeCores::test_congruence_on_single_entry_rows",
    ),
    (
        "src/quadlat/linalg.py",
        "                        out_i[j] = out[j][i] = out_i[j] + ax * y\n",
        "                        out_i[j] = out_i[j] + ax * y\n",
        f"{ORACLE}::TestTransformFreeCores::test_congruence_on_single_entry_rows",
    ),
    (
        "src/quadlat/linalg.py",
        "                    if j >= i:\n",
        "                    if j > i:\n",
        f"{ORACLE}::TestTransformFreeCores::test_congruence_on_single_entry_rows",
    ),
    # the clean-column Smith step and the echelon-only Hermite pass
    (
        "src/quadlat/linalg.py",
        "                    dirty |= _gcd_col_op(S, V, t, j, t, dirty)\n",
        "                    dirty |= _gcd_col_op(S, V, t, j, t, False)\n",
        f"{ORACLE}::TestCleanSmithColumns::test_gcd_and_divisible_steps",
    ),
    (
        "src/quadlat/linalg.py",
        "    return _hnf(T[rank:], len(rows), False)[0]\n",
        "    return _hnf(T[rank:], len(rows), False, echelon_only=True)[0]\n",
        f"{ORACLE}::TestEchelonOnlyHermitePass::test_kernels_are_normalised",
    ),
    # sparse rows belong to one matrix; each thing the k3 pipeline keeps is computed once
    (
        "src/quadlat/linalg.py",
        "        return self._trusted(cols, self.nrows)\n",
        "        t = self._trusted(cols, self.nrows)\n        t._sparse = self._sparse\n        return t\n",
        "tests/test_linalg.py::TestReusedRightOperand::test_products_match_dense_reference",
    ),
    (
        "src/quadlat/linalg.py",
        "        return self._trusted(self._data + other._data, self._ncols)\n",
        "        t = self._trusted(self._data + other._data, self._ncols)\n"
        "        t._sparse = self._sparse\n        return t\n",
        "tests/test_linalg.py::TestReusedRightOperand::test_products_match_dense_reference",
    ),
    (
        "src/quadlat/linalg.py",
        "        return self._trusted(tuple([tuple([k * x for x in row]) for row in self._data]), self._ncols)\n",
        "        t = self._trusted(tuple([tuple([k * x for x in row]) for row in self._data]), self._ncols)\n"
        "        t._sparse = self._sparse\n        return t\n",
        "tests/test_linalg.py::TestReusedRightOperand::test_products_match_dense_reference",
    ),
    (
        "src/quadlat/embeddings.py",
        "        if b.nrows > b.ncols or det_exact(b @ b.transpose()) == 0:\n",
        "        if b.nrows > b.ncols:\n",
        "tests/test_embeddings.py::TestSublatticeEmbedding::test_proportional_rows_rejected",
    ),
    (
        "src/quadlat/lattice.py",
        "    if L._group is None:\n",
        "    if True:\n",
        "tests/test_lattice.py::TestDiscriminantGroup::test_invariants_read_the_kept_group",
    ),
    (
        "src/quadlat/embeddings.py",
        "    if E._complement is None:\n",
        "    if True:\n",
        "tests/test_embeddings.py::TestKernelEmbeddings::test_extension_reuses_the_kept_complement",
    ),
    # iota2d carries its complement, and a relabelled lattice its group
    (
        "src/quadlat/embeddings.py",
        "(0,) * 16 + row + (0,) * 4",
        "(0,) * 15 + row + (0,) * 5",
        "tests/test_embeddings.py::TestConstructedIotaComplement::test_equals_the_generic_complement",
    ),
    (
        "src/quadlat/lattice.py",
        "    return _trusted(Lattice, **{**vars(L), \"label\": label})\n",
        "    return _trusted(Lattice, gram=L.gram, label=label, det=L.det, _signature=L._signature)\n",
        "tests/test_lattice.py::TestConstructedLambda2dGroup::test_relabelled_copies_find_the_same_lift",
    ),
    # a rational matrix is one integer matrix over one denominator, in lowest terms
    (
        "src/quadlat/linalg.py",
        "        if g > 1:\n            num, den = IntMatrix._trusted(",
        "        if False:\n            num, den = IntMatrix._trusted(",
        "tests/test_lattice.py::TestDualBasis::test_dual_times_gram_is_identity",
    ),
    (
        "src/quadlat/linalg.py",
        "isinstance(other, RatMatrix) and self._den == other._den and self._num == other._num",
        "isinstance(other, RatMatrix) and self._num == other._num",
        f"{ORACLE}::TestDualVectorIntegerPaths::test_numerators_round_trip",
    ),
    # Lambda2d carries its group; solve_rational reduces only the unknowns it eliminated
    (
        "src/quadlat/lattice.py",
        "        lift = IntMatrix._trusted(((0,) * 20 + (-1,),), 21)\n",
        "        lift = IntMatrix._trusted(((0,) * 20 + (1,),), 21)\n",
        "tests/test_lattice.py::TestConstructedLambda2dGroup::test_equals_the_transform_lift",
    ),
    (
        "src/quadlat/linalg.py",
        "    g = gcd(den, *chain.from_iterable(x[j] for j in cols))\n",
        "    g = 1\n",
        f"{ORACLE}::TestSolveCore::test_fixed_rows_join_the_reduced_denominator",
    ),
    (
        "src/quadlat/linalg.py",
        "    if den > 1:  # the rows that unit rows fixed, times den\n",
        "    if False:  # the rows that unit rows fixed, times den\n",
        f"{ORACLE}::TestSolveCore::test_fixed_rows_join_the_reduced_denominator",
    ),
    # kernel_basis splits off zero rows; Lambda2d and iota2d carry what their construction proves
    (
        "src/quadlat/linalg.py",
        "(0,) * j + (1,) + (0,) * (n - 1 - j)",
        "(0,) * j + (-1,) + (0,) * (n - 1 - j)",
        f"{ORACLE}::TestKernelSplitsOffZeroRows::test_equals_the_unsplit_passes",
    ),
    (
        "src/quadlat/linalg.py",
        "        by_pivot[sparse[0][0]] = (tuple(row), sparse)",
        "        by_pivot[sparse[-1][0]] = (tuple(row), sparse)",
        f"{ORACLE}::TestKernelSplitsOffZeroRows::test_equals_the_unsplit_passes",
    ),
    (
        "src/quadlat/lattice.py",
        "label=f\"Lambda2d({d})\", det=-2 * d,",
        "label=f\"Lambda2d({d})\", det=2 * d,",
        "tests/test_lattice.py::TestConstructedLambda2dGram::test_equals_the_direct_sum",
    ),
    (
        "src/quadlat/embeddings.py",
        "_index=gcd(*v)\n",
        "_index=gcd(*v[1:])\n",
        "tests/test_embeddings.py::TestConstructedIotaComplement::test_carried_index_is_the_smith_product",
    ),
    (
        "src/quadlat/lattice.py",
        "    if d == 0:\n        raise Degenerate(\"Gram matrix is singular\")\n",
        "    if False:\n        raise Degenerate(\"Gram matrix is singular\")\n",
        "tests/test_embeddings.py::TestKeptLattice::test_degenerate_restriction_is_refused",
    ),
    # boundaries no test reached: a zero ψ(ω, ω̄), and |A| or |det| equal to its cap
    (
        "src/quadlat/periods.py",
        "    if conj <= 0:\n",
        "    if conj < 0:\n",
        "tests/test_periods.py::TestValidatePeriod::test_totally_isotropic_plane_is_not_positive",
    ),
    # the minimal Hodge sublattice is the validated plane, saturated
    (
        "src/quadlat/periods.py",
        "    return saturate(_plane(omega))\n",
        "    return _plane(omega)\n",
        "tests/test_periods.py::TestMinimalHodgeSublattice::test_scaling_invariance",
    ),
    (
        "src/quadlat/periods.py",
        "    validate_period(omega)\n    return saturate(_plane(omega))\n",
        "    return saturate(_plane(omega))\n",
        "tests/test_periods.py::TestMinimalHodgeSublattice::test_invalid_periods_raise_before_the_plane",
    ),
    (
        "src/quadlat/lattice.py",
        "    if F1.order > cap:\n",
        "    if F1.order >= cap:\n",
        "tests/test_lattice.py::TestDiscFormIsomorphic::test_cap_is_inclusive",
    ),
    (
        "src/quadlat/glue.py",
        "    if abs(det) > cap:\n",
        "    if abs(det) >= cap:\n",
        "tests/test_glue.py::TestEnumerateEvenBinary::test_cap_is_inclusive",
    ),
    # a form is its integers over N: values divided by den² exactly, and read as views
    (
        "src/quadlat/lattice.py",
        "N, dd = (factors[-1] if factors else 1), den * den",
        "N, dd = (factors[-1] if factors else 1), den",
        "tests/test_lattice.py::TestDiscriminantForm::test_rank_one_q_value",
    ),
    (
        "src/quadlat/lattice.py",
        "    if any(p % dd for row in pairings for p in row):\n",
        "    if any(p % dd for row in pairings[1:] for p in row):\n",
        f"{ORACLE}::TestTrustedGluePath::test_discriminant_pairing_exactness_is_checked",
    ),
    (
        "src/quadlat/lattice.py",
        "Fraction(x, self._exponent) for x in self._q_gen",
        "Fraction(x % self._exponent, self._exponent) for x in self._q_gen",
        "tests/test_lattice.py::TestDiscriminantForm::test_plus_minus_two",
    ),
    # the recursive searches unbind themselves, leaving no reference cycle
    (
        "src/quadlat/lattice.py",
        "        del search  #",
        "        pass  #",
        f"{ORACLE}::TestNoReferenceCycles::test_searches_leave_no_garbage",
    ),
    (
        "src/quadlat/embeddings.py",
        "        del descend  #",
        "        pass  #",
        f"{ORACLE}::TestNoReferenceCycles::test_searches_leave_no_garbage",
    ),
    (
        "src/quadlat/glue.py",
        "        del grow  #",
        "        pass  #",
        f"{ORACLE}::TestNoReferenceCycles::test_searches_leave_no_garbage",
    ),
    # a complement of higher rank than its source, in a unimodular ambient, reads its det and signature off it
    (
        "src/quadlat/embeddings.py",
        "    det, r = divmod(C.ambient.det * sub.det, k * k)\n",
        "    det, r = divmod(abs(C.ambient.det * sub.det), k * k)\n",
        f"{ORACLE}::TestComplementFromItsSource::test_k3_complements",
    ),
    (
        "src/quadlat/embeddings.py",
        "Signature(plus - s_plus, minus - s_minus)",
        "Signature(minus - s_minus, plus - s_plus)",
        f"{ORACLE}::TestComplementFromItsSource::test_k3_complements",
    ),
    (
        "src/quadlat/embeddings.py",
        "    if r:\n        raise InvariantViolation(\n            \"the complement det",
        "    if False:\n        raise InvariantViolation(\n            \"the complement det",
        f"{ORACLE}::TestComplementFromItsSource::test_complement_det_exactness_is_checked",
    ),
    (
        "src/quadlat/embeddings.py",
        "        if abs(E.ambient.det) == 1 and E.rank < C.rank:\n",
        "        if E.rank < C.rank:\n",
        f"{ORACLE}::TestComplementFromItsSource::test_non_unimodular_ambient_runs_the_elimination",
    ),
    (
        "src/quadlat/embeddings.py",
        "        if abs(E.ambient.det) == 1 and E.rank < C.rank:\n",
        "        if abs(E.ambient.det) == 1:\n",
        f"{ORACLE}::TestComplementFromItsSource::test_a_source_of_higher_rank_is_not_kept",
    ),
    (
        "src/quadlat/embeddings.py",
        "det=-2 * d, _signature=Signature(0, 7)",
        "det=2 * d, _signature=Signature(0, 7)",
        f"{ORACLE}::TestComplementFromItsSource::test_k3_complements",
    ),
    # gen(k) carries its group
    (
        "src/quadlat/lattice.py",
        "            lift = IntMatrix._trusted(((1 if k > 0 else -1,),), 1)\n",
        "            lift = IntMatrix._trusted(((-1 if k > 0 else 1,),), 1)\n",
        "tests/test_lattice.py::TestConstructedGenGroup::test_equals_the_lattice_of_its_gram",
    ),
    # sparse rows carried from construction
    (
        "src/quadlat/lattice.py",
        "[(20, -2 * d)]",
        "[(20, 2 * d)]",
        f"{ORACLE}::TestCarriedSparseRows::test_lambda2d_grams",
    ),
    (
        "src/quadlat/embeddings.py",
        "[[(i, 1)] for i in units]",
        "[[(i, -1)] for i in units]",
        f"{ORACLE}::TestCarriedSparseRows::test_iota2d_bases_and_complements",
    ),
    (
        "src/quadlat/embeddings.py",
        "[[(16 + j, x) for j, x in row] for row in perp._sparse_rows()]",
        "[[(15 + j, x) for j, x in row] for row in perp._sparse_rows()]",
        f"{ORACLE}::TestCarriedSparseRows::test_iota2d_bases_and_complements",
    ),
    (
        "src/quadlat/linalg.py",
        "                sparse.append((i, x))\n",
        "                sparse.append((i, 1))\n",
        f"{ORACLE}::TestCarriedSparseRows::test_kernel_basis_outputs",
    ),
    # one unchecked builder for every value type, each kept fact a class default of None
    (
        "src/quadlat/lattice.py",
        "    vars(obj).update(fields)\n",
        "    vars(obj).update(list(fields.items())[1:])\n",
        "tests/test_trusted.py::TestTrustedBuilder::test_fields_as_given",
    ),
    (
        "src/quadlat/lattice.py",
        "**{**vars(L), \"label\": label}",
        "**{\"label\": label, **vars(L)}",
        "tests/test_trusted.py::TestTrustedBuilder::test_fields_as_given",
    ),
    (
        "src/quadlat/embeddings.py",
        "    _index = None  #",
        "    _index = 1  #",
        "tests/test_trusted.py::TestTrustedBuilder::test_sublattice_embeddings",
    ),
    # a point count counts only invertible matrices: the one reduction mod p
    # drops a column in the span of the ones picked; it tests the diagonal
    # condition c_kᵀ·F·c_k ≡ F_kk; an SL count has ell^(n-1) last columns
    (
        "src/quadlat/linalg.py",
        "            return lead, [b * inv % p for b in x]\n    return None\n",
        "            return lead, [b * inv % p for b in x]\n    return 0, x\n",
        "tests/test_brauer.py::TestBruteForcePoints::test_orthogonal_counts_only_invertible_matrices",
    ),
    (
        "src/quadlat/brauer.py",
        "        if sum(map(mul, row, x)) % ell != form[k][k]:\n",
        "        if False:\n",
        "tests/test_brauer.py::TestBruteForcePoints::test_orthogonal_of_hyperbolic_plane_mod3",
    ),
    (
        "src/quadlat/brauer.py",
        "        return ell ** len(basis)\n",
        "        return ell ** (len(basis) - 1)\n",
        "tests/test_brauer.py::TestBruteForcePoints::test_sl2_mod3",
    ),
    # the reduction takes its input mod p first (coefficients in ℤ/9 read mod
    # 3); the isomorphism search keeps only images independent mod p
    (
        "src/quadlat/linalg.py",
        "    x = [a % p for a in x]\n",
        "    x = list(x)\n",
        "tests/test_lattice.py::TestIsomorphismSearchWork::test_zero_forms",
    ),
    (
        "src/quadlat/lattice.py",
        "row = _reduce_mod(T2.coefficients(y), echelon, p)",
        "row = _reduce_mod(T2.coefficients(y), echelon, p) or (0, [0] * len(gens))",
        f"{ORACLE}::TestPrimeByPrimeIsomorphism::test_degenerate_hand_built_forms",
    ),
    # an error's code is its class name; IntMatrix.stack of a RatMatrix is rational
    (
        "src/quadlat/errors.py",
        "        cls.code = cls.__name__\n",
        "        cls.code = cls.__name__.lower()\n",
        "tests/test_cli.py::test_every_error_code_is_its_class_name",
    ),
    (
        "src/quadlat/linalg.py",
        "        if isinstance(other, RatMatrix):  # a rational stack",
        "        if False:  # a rational stack",
        "tests/test_linalg.py::TestConstructorAndOperandChecks::test_mixed_stacks_are_rational",
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(copy: Path, test_ids: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for the tests in the copy; 'missing'
    when pytest finds no such test."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_ids],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed", 2: "failed"}.get(proc.returncode, "missing")


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        for i, (path, old, new, test_id) in enumerate(MUTANTS):
            count = (clean / path).read_text(encoding="utf-8").count(old)
            if count != 1:
                print(f"mutant {i}: old text occurs {count} times in {path}")
                bad += 1
        test_ids = sorted({m[3] for m in MUTANTS})
        outcome = _run(clean, test_ids)
        if outcome != "passed":
            print(f"the named tests on the unchanged copy: {outcome}")
            return 1
        for i, (path, old, new, test_id) in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant-{i}"
            _copy(copy)
            target = copy / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            outcome = _run(copy, [test_id])
            killed = outcome in ("failed", "timeout")
            print(f"mutant {i} ({path}): {'killed' if killed else 'SURVIVED'} ({outcome}) by {test_id}")
            bad += not killed
            shutil.rmtree(copy)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
