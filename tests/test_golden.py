"""Golden digests of the glue and K3 paths: their outputs on a fixed corpus
must stay byte-identical.

Each case is one SHA-256 over a canonical JSON record of what the public
functions return: the ``discriminant_form`` q and b values, the
``isotropic_subgroups`` generators in their order, each subgroup's
``glue_order``, and each overlattice's Gram, det and signature.  U(2)^4
records the generators only, which keeps the test within a few seconds.
The "elements" sections record each subgroup's ``subgroup_elements``,
sorted, with its ``glue_order``: of the isotropic subgroups above, and of
seeded ``GlueSubgroup``s from the public constructor, isotropic or not,
with the overlattice each gives or the refusal.  The "discform" sections
record the discriminant group's lifts and the stdout of
``quadlat --json discform`` for Lambda2d(1..100) and three more lattices.
The "k3" section records, for d = 1..1000 in steps of 37, the stdout of
``quadlat --json iota2d d`` and of ``quadlat --json complement`` on it,
``extend_isometry`` of the swap of the two E8(-1) blocks, and the
complement of the polarization e + d·f in LambdaK3.  The "info/nikulin"
section records the text and JSON stdout of ``info`` and ``nikulin`` on
13 expressions, every atom among them; "overlattices" the text and JSON
stdout of ``overlattices`` on the glue expressions; "saturation" records
``saturation_index`` and ``saturate`` of seeded bases, dependent ones
with their refusal; "quotient" records ``quotient_structure`` of the
cli-mix periods' algebraic and transcendental parts, and of scaled
copies of them.  "Lambda2d(101..1000 step 9)" records, for each d, the
lifts and the form of the group that ``standard("Lambda2d", d)`` carries,
and the stdout of ``quadlat --json discform``, whose expression path
finds the group by a Smith form.  "extension solves" records, for
d = 1..60, ``solve_rational`` on the k3 extension system (the iota2d
basis stacked on its complement) against the E8(-1) swap's right side,
integral and over 2d, and its inverse.  "cli-mix stdout" records the exit code and stdout of
every request of the cli-mix benchmark, in two passes, with its input
files written to a fresh directory and named relative to it, so an error
detail that quotes a path reads the same on every run; "discform" on the
13 info expressions records its text and JSON stdout.  "rational
outputs" records the ``str`` entries of ``dual_basis`` and of the
discriminant lifts on the 13 info expressions and on seeded even
lattices, and of ``solve_rational``, ``invert_rational`` and the
``RatMatrix`` ``transpose``/``stack``/``scale``/``@`` on seeded integer
matrices, singular ones with their refusal.  "unit-row kernels" records
``_congruence`` on seeded left factors whose rows have one nonzero entry
(signed permutations, iota2d-like bases, such rows mixed with dense, zero
and two-entry rows, and bases with no rows), the S of
``_smith(m, False, False)`` and ``saturation_index`` on seeded matrices
with rows ±e_j, repeated columns among them, and the basis of
``orthogonal_complement(build_iota2d(d))`` for d = 1..1000.  "normal
forms" records U, S, V of ``smith_normal_form``, H, T of
``hermite_normal_form`` and ``kernel_basis`` on seeded matrices (dense,
block-diagonal, with zero rows, and tall sparse ones whose kernels hold
unit vectors), the complement of the polarization e + d·f in LambdaK3 with
its det and signature for d = 1..1000, and the Gram, det and signature of
``standard("Lambda2d", d)`` for d = 1..1000.  "isomorphism pool" records
the q and b values of the pool forms of ``sample_lattices.pool_lattices``
and the ``disc_form_isomorphic`` verdict, with ``negate`` False and True,
on every pair of them with equal invariant factors.  "E8 and An norm
counts" records ``count_norm_vectors`` of E8 at norms 0..10 (the refusal
at the odd ones) and of A1..A8 at norm 2; for E8 up to norm 6 and for
A1..A8 it pins the nodes the search visits, ``NORM_NODES``: with
``NORM_SEARCH_CAP`` set to that count the search passes, and one below
it refuses.  "points corpus" records ``brute_force_points`` for SL, Sp
and O, O over An(n), U, U(2) and gen(2), for every prime ell with
ell^(n²) ≤ 10⁴ at n = 2 and 3 and every ell < 100 at n = 1.
The stored digests live in ``golden_digests.json``; a change that means
to alter one of these outputs rewrites them with

    PYTHONPATH=src python tests/test_golden.py --write

and says why.  ``--check`` compares them without pytest, on any
interpreter, and exits 1 on a mismatch.  The test runs under any
``PYTHONHASHSEED``: nothing in the records may depend on set or dict
iteration order.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from quadlat import embeddings
from quadlat.brauer import CohomologyPair, brute_force_points, quotient_structure
from quadlat.cli import run
from quadlat.embeddings import (
    SublatticeEmbedding,
    as_lattice,
    build_iota2d,
    count_norm_vectors,
    extend_isometry,
    orthogonal_complement,
    saturate,
    saturation_index,
)
from quadlat.errors import BadParameter, NotIsotropic, ParityViolation, SingularMatrix, TooLarge
from quadlat.expr import evaluate_expr
from quadlat.glue import GlueSubgroup, glue_order, isotropic_subgroups, overlattice_from_glue, subgroup_elements
from quadlat.lattice import disc_form_isomorphic, discriminant_form, discriminant_group, dual_basis, signature, standard
from quadlat.linalg import (
    IntMatrix,
    RatMatrix,
    _congruence,
    _smith,
    block_diag,
    hermite_normal_form,
    invert_rational,
    kernel_basis,
    smith_normal_form,
    solve_rational,
)
from quadlat.periods import period_from_json, transcendental
from sample_lattices import pool_lattices, random_even_lattice

DIGESTS = Path(__file__).with_name("golden_digests.json")
EXPRESSIONS = ("U(2)^2", "U(3)^2", "U(2)^3", "U(6)^2")
CRITERION_5_SEED, CRITERION_5_COUNT = 160451, 200
PUBLIC_GLUE_SEED, PUBLIC_GLUE_COUNT = 170517, 300
DISCFORM_EXPRESSIONS = ("gen(-4)", "U(2)+gen(6)", "Lambda2d(7)")
K3_DEGREES = range(1, 1001, 37)
INFO_EXPRESSIONS = (
    "E8", "E8(-1)", "U", "LambdaSharp", "LambdaK3", "An(5)", "gen(-4)", "U(2)+gen(6)",
    "Lambda2d(7)", "Lambda2d(1000)", "U(2)^3", "E8(2)+An(3)", "U(-1)+gen(10)",
)
SATURATION_SEED, SATURATION_COUNT = 180923, 300
RATIONAL_SEED, RATIONAL_COUNT = 210419, 40
LAMBDA2D_DEGREES = range(101, 1001, 9)
EXTENSION_DEGREES = range(1, 61)
UNIT_ROW_SEED, UNIT_ROW_COUNT = 230519, 300
IOTA_COMPLEMENT_DEGREES = range(1, 1001)
NORMAL_FORM_SEED, NORMAL_FORM_COUNT = 240611, 300
POLARIZATION_DEGREES = range(1, 1001)
E8_NORMS = range(0, 11)
AN_RANKS = range(1, 9)
# the nodes each norm search visits: it passes with NORM_SEARCH_CAP at this
# count and refuses one below it
NORM_NODES = {
    ("E8", 0): 9, ("E8", 2): 735, ("E8", 4): 5475, ("E8", 6): 18411,
    **{(f"An({n})", 2): nodes for n, nodes in zip(AN_RANKS, (4, 11, 24, 45, 76, 119, 176, 249))},
}
POINTS_PRIMES = tuple(p for p in range(2, 100) if all(p % q for q in range(2, p)))
# the lattices whose orthogonal groups the points corpus counts, by rank
POINTS_FORMS = {1: ("An(1)", "gen(2)"), 2: ("An(2)", "U", "U(2)"), 3: ("An(3)",)}

# swaps the two E8(-1) blocks of Lambda2d(d) and fixes U^2 + gen(-2d)
_SWAP = IntMatrix([[int(j == ((i + 8) % 16 if i < 16 else i)) for j in range(21)] for i in range(21)])

# the two periods of the cli-mix benchmark: U^2 and U^2 + E8(-1), re = (1, 1, 0, ...), im = (0, 0, 1, 1, ...)
_E8_NEG = [[-x for x in row] for row in standard("E8").gram]
_PERIODS = tuple(
    {"lattice": {"gram": gram}, "D": -1, "re": [1, 1] + [0] * (len(gram) - 2), "im": [0, 0, 1, 1] + [0] * (len(gram) - 4)}
    for gram in (
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[0, 1, 0, 0] + [0] * 8, [1, 0, 0, 0] + [0] * 8, [0, 0, 0, 1] + [0] * 8, [0, 0, 1, 0] + [0] * 8]
        + [[0] * 4 + row for row in _E8_NEG],
    )
)


# the cli-mix benchmark's input files, by the relative names its requests pass
_CLI_FILES = {
    "period_uu.json": json.dumps({**_PERIODS[0], "re": ["1", "1", "0", "0"], "im": ["0", "0", "1", "1"]}),
    "period_uu_e8.json": json.dumps(
        {**_PERIODS[1], "re": [str(x) for x in _PERIODS[1]["re"]], "im": [str(x) for x in _PERIODS[1]["im"]]}
    ),
    "gens.json": json.dumps({"ell": 5, "generators": [
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    ]}),
    "malformed.json": '{"ell": 5, "generators": [[[1, 0], [0, 1]]',
}
_POLARIZED_3 = [0] * 16 + [1, 3] + [0] * 4  # e + 3f in the first hyperbolic plane of LambdaK3
# (argv after --json, stdin): the benchmark's 21 answers, 4 domain or usage errors and 3 bad inputs
_CLI_MIX = (
    (["info", "gen(-4)"], ""),
    (["info", "U(2)+gen(6)"], ""),
    (["info", "Lambda2d(7)"], ""),
    *((["discform", expr], "") for expr in DISCFORM_EXPRESSIONS),
    (["nikulin", "Lambda2d(7)", "2,26"], ""),
    (["nikulin", "U(2)+gen(6)", "2,26"], ""),
    (["nikulin", "Lambda2d(7)", "2,19"], ""),
    (["iota2d", "5"], ""),
    (["complement"], json.dumps({"ambient": {"gram": standard("LambdaK3").gram.tolist()}, "basis": [_POLARIZED_3]})),
    (["period-split", "period_uu.json"], ""),
    (["period-split", "period_uu_e8.json"], ""),
    (["fixed-mod-ell", "gens.json"], ""),
    (["overlattices", "U(2)^2"], ""),
    (["binary-enum", "12", "pos"], ""),
    (["binary-enum", "60", "neg"], ""),
    (["minkowski", "4"], ""),
    (["points", "special_linear", "2", "5"], ""),
    (["points", "symplectic", "2", "3"], ""),
    (["points", "orthogonal", "2", "3", "--of", "U"], ""),
    (["nikulin", "gen(3)", "2,26"], ""),
    (["info", "Foo(1)"], ""),
    (["info", "E8(-1)^"], ""),
    (["binary-enum", "12", "sideways"], ""),
    (["period-split", "missing.json"], ""),
    (["fixed-mod-ell", "malformed.json"], ""),
    (["complement"], json.dumps({"ambient": {"gram": _PERIODS[0]["lattice"]["gram"]}, "basis": [["x", 0, 0, 0]]})),
)


def _rat_rows(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def _form_record(F) -> dict:
    return {"q": [str(x) for x in F.q_values], "b": _rat_rows(F.b_values)}


def _glue_record(L) -> dict:
    F = discriminant_form(L)
    subgroups = []
    for G in isotropic_subgroups(F):
        M = overlattice_from_glue(G)
        subgroups.append({
            "generators": _rat_rows(G.generators),
            "glue_order": glue_order(G),
            "gram": M.gram.tolist(),
            "det": M.det,
            "signature": list(signature(M)),
        })
    return {"form": _form_record(F), "subgroups": subgroups}


def _digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _criterion_5_lattices():
    rng = random.Random(CRITERION_5_SEED)
    return [random_even_lattice(rng, max_rank=4, max_det=50) for _ in range(CRITERION_5_COUNT)]


def _elements_record(G) -> dict:
    # sorted, so the record does not depend on set iteration order
    return {"elements": sorted([str(x) for x in e] for e in subgroup_elements(G)), "glue_order": glue_order(G)}


def _isotropic_elements_record(L) -> list[dict]:
    return [_elements_record(G) for G in isotropic_subgroups(discriminant_form(L))]


def _public_glue_record(rng) -> dict:
    # 0 to 3 rows, each a lift combination Σ cᵢ·liftᵢ shifted by a small
    # lattice vector: zero, redundant and non-isotropic rows all occur
    L = random_even_lattice(rng, max_rank=4, max_det=50)
    lifts = discriminant_group(L).generator_lifts
    rows = []
    for _ in range(rng.randint(0, 3)):
        c = [rng.randint(-3, 3) for _ in range(lifts.nrows)]
        rows.append([sum(k * lifts[i][j] for i, k in enumerate(c)) + rng.randint(-2, 2) for j in range(L.rank)])
    G = GlueSubgroup(L, RatMatrix(rows, ncols=L.rank))
    try:
        M = overlattice_from_glue(G)
        overlattice = {"gram": M.gram.tolist(), "det": M.det, "signature": list(signature(M))}
    except NotIsotropic as exc:
        overlattice = str(exc)
    record = _elements_record(G)
    record.update(gram=L.gram.tolist(), generators=_rat_rows(G.generators), overlattice=overlattice)
    return record


def _discform_record(expr: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(["--json", "discform", expr])
    lifts = discriminant_group(evaluate_expr(expr)).generator_lifts
    return {"lifts": _rat_rows(lifts), "code": code, "stdout": out.getvalue()}


def _cli_stdout(argv: list[str], stdin: str = "") -> tuple[int, str]:
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _k3_record(d: int) -> dict:
    code, iota = _cli_stdout(["--json", "iota2d", str(d)])
    complement = _cli_stdout(["--json", "complement"], stdin=iota)
    E = build_iota2d(d)
    v = [0] * 22
    v[16], v[17] = 1, d  # e + d·f in the first hyperbolic plane of LambdaK3
    polarized = orthogonal_complement(SublatticeEmbedding(standard("LambdaK3"), IntMatrix([v])))
    pol = as_lattice(polarized)
    return {
        "iota2d": [code, iota],
        "complement": list(complement),
        "extension": extend_isometry(E, _SWAP).tolist(),
        "polarized": {"basis": polarized.basis.tolist(), "det": pol.det, "signature": list(signature(pol))},
    }


def _info_nikulin_record(expr: str) -> list:
    argvs = (["info", expr], ["nikulin", expr, "2,26"], ["nikulin", expr, "3,19"])
    return [_cli_stdout(prefix + argv) for argv in argvs for prefix in ([], ["--json"])]


def _saturation_record(rng) -> dict:
    # k rows of width n, some scaled or summed, so indices above 1 and dependent bases occur
    n = rng.randint(1, 8)
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, n))]
    for row in rows:
        if rng.random() < 0.3:
            row[:] = [rng.choice((2, 3, 4, 6)) * x for x in row]
    if len(rows) > 1 and rng.random() < 0.2:
        rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]
    ambient = evaluate_expr("+".join(f"gen({k + 1})" for k in range(n)))  # saturation ignores its Gram
    try:
        E = SublatticeEmbedding(ambient, IntMatrix(rows, ncols=n))
    except BadParameter as exc:
        return {"basis": rows, "refused": str(exc)}
    return {"basis": rows, "index": saturation_index(E), "saturation": saturate(E).basis.tolist()}


def _quotient_record(payload: dict) -> list:
    omega = period_from_json(payload)
    split = transcendental(omega)
    H = omega.lattice
    out = []
    for part in (split.ns, split.trans):
        for k in (1, 2, 6):  # row i scaled by k^i
            rows = [[k**i * x for x in row] for i, row in enumerate(part.basis)]
            out.append(quotient_structure(CohomologyPair(H, SublatticeEmbedding(H, IntMatrix(rows, ncols=H.rank)))))
    return out


def _dual_record(L) -> dict:
    return {"dual": _rat_rows(dual_basis(L)), "lifts": _rat_rows(discriminant_group(L).generator_lifts)}


def _rational_record(rng) -> dict:
    # an n×n integer matrix, singular about one time in five, and a k-column
    # rational right side; the RatMatrix operations run on m⁻¹ (or on m/den
    # when m is singular) against integer and rational operands
    n, k = rng.randint(1, 6), rng.randint(1, 3)
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
    m = IntMatrix(rows)
    den = rng.randint(1, 12)
    b = RatMatrix([[Fraction(rng.randint(-20, 20), den) for _ in range(k)] for _ in range(n)], ncols=k)
    record: dict = {"m": rows, "b": _rat_rows(b)}
    try:
        inv = invert_rational(m)
        record.update(inverse=_rat_rows(inv), solve=_rat_rows(solve_rational(m, b)),
                      solve_int=_rat_rows(solve_rational(m, m)))
    except SingularMatrix as exc:
        inv = m.to_rat().scale(Fraction(1, den))
        record["refused"] = str(exc)
    scalar = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    record.update(
        transpose=_rat_rows(inv.transpose()),
        stack_int=_rat_rows(inv.stack(m)),
        stack_rat=[_rat_rows(inv.stack(b.transpose())), _rat_rows(RatMatrix([], ncols=n).stack(inv))],
        scale=[_rat_rows(inv.scale(s)) for s in (scalar, 0, -1, 3)],
        products=[_rat_rows(p) for p in (inv @ m, m @ inv, inv @ b, b.transpose() @ inv, inv @ inv)],
    )
    return record


def _lambda2d_record(d: int) -> dict:
    L = standard("Lambda2d", d)
    return {
        "lifts": _rat_rows(discriminant_group(L).generator_lifts),
        "form": _form_record(discriminant_form(L)),
        "discform": list(_cli_stdout(["--json", "discform", f"Lambda2d({d})"])),
    }


def _extension_record(d: int) -> dict:
    # the system extend_isometry solves: its 27 unit rows fix their unknowns outright
    E = build_iota2d(d)
    comp = orthogonal_complement(E)
    m, rhs = E.basis.stack(comp.basis), (_SWAP @ E.basis).stack(comp.basis)
    return {
        "swap": _rat_rows(solve_rational(m, rhs)),
        "swap over 2d": _rat_rows(solve_rational(m, rhs.to_rat().scale(Fraction(1, 2 * d)))),
        "inverse": _rat_rows(invert_rational(m)),
    }


def _unit_row_rows(rng, k: int, n: int, singles) -> list[list[int]]:
    # k rows of width n: one nonzero entry drawn from singles on a random
    # column (columns may repeat), dense rows, zero rows and two-entry rows
    rows = []
    for _ in range(k):
        row, kind = [0] * n, rng.random()
        if kind < 0.55:
            row[rng.randrange(n)] = rng.choice(singles)
        elif kind < 0.8:
            row = [rng.randint(-5, 5) for _ in range(n)]
        elif kind >= 0.9:
            for j in rng.sample(range(n), min(2, n)):
                row[j] = rng.choice((1, -1, 2))
        rows.append(row)
    return rows


def _symmetric_rows(rng, n: int) -> list[list[int]]:
    # dense, or with about 70% of its entries zero
    density, g = rng.choice((1.0, 0.3)), [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                g[i][j] = g[j][i] = rng.randint(-6, 6)
    return g


def _congruence_record(rng) -> dict:
    n = rng.randint(1, 10)
    kind = rng.choice(("signed permutation", "iota-like", "mixed", "no rows"))
    if kind == "signed permutation":
        perm = rng.sample(range(n), n)
        rows = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    elif kind == "iota-like":  # unit rows on distinct columns, then one dense row on the others
        cols, k = rng.sample(range(n), n), rng.randint(0, n - 1)
        rows = [[int(j == c) for j in range(n)] for c in cols[:k]]
        rows.append([rng.randint(-4, 4) if j in cols[k:] else 0 for j in range(n)])
    elif kind == "mixed":
        rows = _unit_row_rows(rng, rng.randint(1, n + 2), n, (1, -1, 2, -3))
    else:
        rows = []
    gram = _symmetric_rows(rng, n)
    return {"b": rows, "g": gram, "c": _congruence(IntMatrix(rows, ncols=n), IntMatrix(gram)).tolist()}


def _unit_row_smith_record(rng) -> dict:
    # non-square, with rows ±e_j; a unit row is sometimes repeated on its column, sign flipped
    n = rng.randint(1, 8)
    rows = _unit_row_rows(rng, rng.randint(1, n + 2), n, (1, -1))
    if rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), [-x for x in rows[rng.randrange(len(rows))]])
    m = IntMatrix(rows, ncols=n)
    record: dict = {"m": rows, "S": _smith(m, False, False)[1]}
    ambient = evaluate_expr("+".join(f"gen({k + 1})" for k in range(n)))  # saturation ignores its Gram
    try:
        record["index"] = saturation_index(SublatticeEmbedding(ambient, m))
    except BadParameter as exc:
        record["refused"] = str(exc)
    return record


def _normal_form_matrix(rng) -> IntMatrix:
    kind = rng.choice(("dense", "block-diagonal", "zero rows", "tall sparse"))
    if kind == "block-diagonal":
        blocks = []
        for _ in range(rng.randint(2, 3)):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            blocks.append(IntMatrix([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]))
        return block_diag(*blocks)
    if kind == "tall sparse":  # rows zero, ±e_j or two-entry: the kernel holds unit vectors
        c = rng.randint(1, 3)
        return IntMatrix(_unit_row_rows(rng, rng.randint(c + 1, 9), c, (1, -1, 2, -3)), ncols=c)
    r, c = rng.randint(1, 7), rng.randint(1, 7)
    rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
    if kind == "zero rows":
        for i in rng.sample(range(r), rng.randint(1, r)):
            rows[i] = [0] * c
    return IntMatrix(rows, ncols=c)


def _normal_form_record(rng) -> dict:
    m = _normal_form_matrix(rng)
    U, S, V = smith_normal_form(m)
    H, T = hermite_normal_form(m)
    return {
        "m": m.tolist(),
        "smith": [U.tolist(), S.tolist(), V.tolist()],
        "hermite": [H.tolist(), T.tolist()],
        "kernel": kernel_basis(m).tolist(),
    }


def _polarization_record(d: int) -> dict:
    v = [0] * 22
    v[16], v[17] = 1, d  # e + d·f in the first hyperbolic plane of LambdaK3
    comp = orthogonal_complement(SublatticeEmbedding(standard("LambdaK3"), IntMatrix([v])))
    L = as_lattice(comp)
    return {"basis": comp.basis.tolist(), "det": L.det, "signature": list(signature(L))}


def _lambda2d_gram_record(d: int) -> dict:
    L = standard("Lambda2d", d)
    return {"gram": L.gram.tolist(), "det": L.det, "signature": list(signature(L))}


def _capped_count(L, norm: int, cap: int):
    # count_norm_vectors under the node cap, or the name of its refusal
    saved = embeddings.NORM_SEARCH_CAP
    embeddings.NORM_SEARCH_CAP = cap
    try:
        return count_norm_vectors(L, norm)
    except (ParityViolation, TooLarge) as exc:
        return type(exc).__name__
    finally:
        embeddings.NORM_SEARCH_CAP = saved


def _norm_count_record(L, norm: int) -> dict:
    record = {"lattice": L.label, "norm": norm}
    nodes = NORM_NODES.get((L.label, norm))
    if nodes is None:
        record["count"] = _capped_count(L, norm, embeddings.NORM_SEARCH_CAP)
    else:
        record.update(nodes=nodes, count=_capped_count(L, norm, nodes), one_below=_capped_count(L, norm, nodes - 1))
    return record


def _points_record() -> list:
    records = []
    for n, forms in POINTS_FORMS.items():
        kinds = [("special_linear", None)] + [("symplectic", None)] * (n % 2 == 0)
        kinds += [("orthogonal", expr) for expr in forms]
        for ell in (p for p in POINTS_PRIMES if n == 1 or p ** (n * n) <= 10**4):
            for group, expr in kinds:
                count = brute_force_points(group, n, ell, of=None if expr is None else evaluate_expr(expr))
                records.append([group, n, ell, expr, count])
    return records


def _isomorphism_pool_record() -> dict:
    forms = [discriminant_form(L) for L in pool_lattices()]
    pairs = [
        (i, j) for i, F1 in enumerate(forms) for j, F2 in enumerate(forms)
        if F1.group.invariant_factors == F2.group.invariant_factors
    ]
    verdicts = [[i, j] + [disc_form_isomorphic(forms[i], forms[j], negate) for negate in (False, True)] for i, j in pairs]
    return {"forms": [_form_record(F) for F in forms], "verdicts": verdicts}


def _cli_mix_record(workdir: Path) -> list:
    # two passes of every request, run from workdir so the file names are relative
    for name, text in _CLI_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    saved = os.getcwd()
    os.chdir(workdir)
    try:
        return [_cli_stdout(["--json", *argv], stdin) for _ in range(2) for argv, stdin in _CLI_MIX]
    finally:
        os.chdir(saved)


def compute_digests(workdir: Path) -> dict[str, str]:
    out = {expr: _digest(_glue_record(evaluate_expr(expr))) for expr in EXPRESSIONS}
    U24 = isotropic_subgroups(discriminant_form(evaluate_expr("U(2)^4")))
    out["U(2)^4 generators"] = _digest([_rat_rows(G.generators) for G in U24])
    criterion_5 = _criterion_5_lattices()
    out[f"criterion-5 x{CRITERION_5_COUNT}"] = _digest([_glue_record(L) for L in criterion_5])
    for expr in EXPRESSIONS:
        out[f"{expr} elements"] = _digest(_isotropic_elements_record(evaluate_expr(expr)))
    out[f"criterion-5 x{CRITERION_5_COUNT} elements"] = _digest([_isotropic_elements_record(L) for L in criterion_5])
    rng = random.Random(PUBLIC_GLUE_SEED)
    out[f"public glue x{PUBLIC_GLUE_COUNT} elements"] = _digest([_public_glue_record(rng) for _ in range(PUBLIC_GLUE_COUNT)])
    out["discform Lambda2d(1..100)"] = _digest([_discform_record(f"Lambda2d({d})") for d in range(1, 101)])
    out["discform cli-mix"] = _digest([_discform_record(expr) for expr in DISCFORM_EXPRESSIONS])
    out["k3 d=1..1000 step 37"] = _digest([_k3_record(d) for d in K3_DEGREES])
    out["info/nikulin x13"] = _digest([_info_nikulin_record(expr) for expr in INFO_EXPRESSIONS])
    out["overlattices stdout"] = _digest(
        [_cli_stdout(prefix + ["overlattices", expr]) for expr in (*EXPRESSIONS, "U(2)+gen(6)") for prefix in ([], ["--json"])]
    )
    rng = random.Random(SATURATION_SEED)
    out[f"saturation x{SATURATION_COUNT}"] = _digest([_saturation_record(rng) for _ in range(SATURATION_COUNT)])
    out["quotient cli-mix periods"] = _digest([_quotient_record(payload) for payload in _PERIODS])
    out["cli-mix stdout x2"] = _digest(_cli_mix_record(workdir))
    out["discform x13"] = _digest(
        [_cli_stdout(prefix + ["discform", expr]) for expr in INFO_EXPRESSIONS for prefix in ([], ["--json"])]
    )
    rng = random.Random(RATIONAL_SEED)
    seeded = [random_even_lattice(rng, max_rank=6, max_det=400) for _ in range(RATIONAL_COUNT)]
    out["rational outputs"] = _digest({
        "info": [_dual_record(evaluate_expr(expr)) for expr in INFO_EXPRESSIONS],
        "seeded": [_dual_record(L) for L in seeded],
        "matrices": [_rational_record(rng) for _ in range(RATIONAL_COUNT)],
    })
    out["Lambda2d(101..1000 step 9)"] = _digest([_lambda2d_record(d) for d in LAMBDA2D_DEGREES])
    out["extension solves d=1..60"] = _digest([_extension_record(d) for d in EXTENSION_DEGREES])
    rng = random.Random(UNIT_ROW_SEED)
    out["unit-row kernels"] = _digest({
        "congruence": [_congruence_record(rng) for _ in range(UNIT_ROW_COUNT)],
        "smith": [_unit_row_smith_record(rng) for _ in range(UNIT_ROW_COUNT)],
        "iota2d complement": [orthogonal_complement(build_iota2d(d)).basis.tolist() for d in IOTA_COMPLEMENT_DEGREES],
    })
    rng = random.Random(NORMAL_FORM_SEED)
    out["normal forms"] = _digest({
        "matrices": [_normal_form_record(rng) for _ in range(NORMAL_FORM_COUNT)],
        "polarization complement": [_polarization_record(d) for d in POLARIZATION_DEGREES],
        "Lambda2d": [_lambda2d_gram_record(d) for d in POLARIZATION_DEGREES],
    })
    out["isomorphism pool"] = _digest(_isomorphism_pool_record())
    out["E8 and An norm counts"] = _digest(
        [_norm_count_record(standard("E8"), norm) for norm in E8_NORMS]
        + [_norm_count_record(standard("An", n), 2) for n in AN_RANKS]
    )
    out["points corpus"] = _digest(_points_record())
    return out


@functools.lru_cache(maxsize=None)
def _computed_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return compute_digests(Path(tmp))


def _stored_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


CASES = (
    *EXPRESSIONS,
    "U(2)^4 generators",
    f"criterion-5 x{CRITERION_5_COUNT}",
    *(f"{expr} elements" for expr in EXPRESSIONS),
    f"criterion-5 x{CRITERION_5_COUNT} elements",
    f"public glue x{PUBLIC_GLUE_COUNT} elements",
    "discform Lambda2d(1..100)",
    "discform cli-mix",
    "k3 d=1..1000 step 37",
    "info/nikulin x13",
    "overlattices stdout",
    f"saturation x{SATURATION_COUNT}",
    "quotient cli-mix periods",
    "cli-mix stdout x2",
    "discform x13",
    "rational outputs",
    "Lambda2d(101..1000 step 9)",
    "extension solves d=1..60",
    "unit-row kernels",
    "normal forms",
    "isomorphism pool",
    "E8 and An norm counts",
    "points corpus",
)


def pytest_generate_tests(metafunc):
    # one test per case, parametrized through this hook so that the module
    # imports no pytest and its script modes run without it
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CASES)


def test_glue_outputs_match_their_golden_digest(case):
    assert _computed_digests()[case] == _stored_digests()[case]


def test_check_exits_1_on_a_mismatch(tmp_path, monkeypatch, capsys):
    stored = _stored_digests()
    stored["isomorphism pool"] = "0" * 64
    altered = tmp_path / "digests.json"
    altered.write_text(json.dumps(stored), encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "DIGESTS", altered)
    assert main(["--check"]) == 1
    assert "mismatch: isomorphism pool" in capsys.readouterr().out
    assert main(["--bad"]) == 2


def main(argv: list[str]) -> int:
    """--write stores the digests; --check compares them with the stored
    ones and returns 1 on a mismatch."""
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps(_computed_digests(), indent=1) + "\n", encoding="utf-8")
        return 0
    if argv != ["--check"]:
        print("usage: python tests/test_golden.py --check | --write", file=sys.stderr)
        return 2
    computed, stored = _computed_digests(), _stored_digests()
    bad = [case for case in CASES if computed[case] != stored.get(case)]
    for case in bad:
        print(f"mismatch: {case}")
    print(f"{len(CASES) - len(bad)} of {len(CASES)} golden sections match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
