"""The three workloads: seeded inputs, the timed calls into quadlat, and
the independent checks each answer must pass.

An ``Op`` is one closed-loop request.  ``run`` is the only part that is
timed (and traced); it receives the freshly imported program and returns
the raw answer objects.  ``check`` runs afterwards, outside the timing
and outside any span, and raises ``facts.Mismatch`` on a wrong answer.
Ops reach quadlat only through module attributes (``p.lattice.signature``)
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator

import facts
from facts import expect


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    input_bytes: int = 0


@dataclass
class Workload:
    name: str
    prepare: Callable[[int, Path], Any]  # inputs from the seed; may write files under the path
    warmup: Callable[[Any], list[Op]]
    rounds: Callable[[Any], Iterator[list[Op]]]  # whole rounds keep the op mix fixed per run
    trace_ops: Callable[[Any], list[Op]]  # a fixed list, so the traced work counts repeat


# ---------------------------------------------------------------------------
# k3-sweep: the rank-21/22/28 invariant and embedding pipeline, one d per op
# ---------------------------------------------------------------------------

K3_DEGREES = 1000
K3_TRACE_OPS = 30

# swaps the two E8(-1) blocks of Lambda2d(d) and fixes U^2 + gen(-2d): det +1,
# trivial on the discriminant group, so it extends to LambdaSharp
_SWAP = [[0] * 21 for _ in range(21)]
for _i in range(8):
    _SWAP[_i][8 + _i] = _SWAP[8 + _i][_i] = 1
for _i in range(16, 21):
    _SWAP[_i][_i] = 1


def _k3_run(p, d: int):
    lat, emb, IntMatrix = p.lattice, p.embeddings, p.linalg.IntMatrix
    L = lat.standard("Lambda2d", d)
    sig = lat.signature(L)
    group = lat.discriminant_group(L)
    verdict = emb.nikulin_check(L, lat.Signature(2, 26))
    E = emb.build_iota2d(d)
    primitive = emb.is_primitive(E)
    comp = emb.orthogonal_complement(E)
    comp_form = lat.discriminant_form(emb.as_lattice(comp))
    minus_q = lat.disc_form_isomorphic(
        comp_form, lat.discriminant_form(lat.standard("gen", -2 * d)), negate=True
    )
    v = [0] * 22
    v[16], v[17] = 1, d  # e + d·f in the first hyperbolic plane of LambdaK3
    polarized = emb.orthogonal_complement(emb.SublatticeEmbedding(lat.standard("LambdaK3"), IntMatrix([v])))
    pol_sig = lat.signature(emb.as_lattice(polarized))
    ext = emb.extend_isometry(E, IntMatrix(_SWAP))
    return dict(
        sig=sig, group=group, verdict=verdict, E=E, primitive=primitive, comp=comp,
        comp_form=comp_form, minus_q=minus_q, v=v, polarized=polarized, pol_sig=pol_sig, ext=ext,
    )


def _k3_check(d: int, a: dict) -> None:
    expect(tuple(a["group"].invariant_factors) == (2 * d,), "Lambda2d invariant factors are not (2d,)")
    expect((a["sig"].plus, a["sig"].minus) == (2, 19), "Lambda2d signature is not (2,19)")
    expect(a["verdict"].outcome == "Guaranteed", "nikulin_check against (2,26) is not Guaranteed")
    expect(a["primitive"] is True, "iota2d is not primitive")
    sharp = facts.lambda_sharp_gram()
    basis = a["E"].basis.tolist()
    expect(facts.gram_of(basis, sharp) == facts.lambda2d_gram(d), "iota2d does not induce the Lambda2d Gram")
    comp = a["comp"].basis.tolist()
    expect(len(comp) == 7, "complement rank is not 7")
    expect(all(v == 0 for row in facts.matmul(facts.matmul(comp, sharp), facts.transpose(basis)) for v in row),
           "complement is not orthogonal to the embedding")
    expect(abs(facts.det(facts.gram_of(comp, sharp))) == 2 * d, "complement |det| is not 2d")
    expect(tuple(a["comp_form"].group.invariant_factors) == (2 * d,), "complement |A| is not 2d")
    expect(a["minus_q"] is True, "complement form is not -q(gen(-2d))")
    k3 = facts.lambda_k3_gram()
    pol = a["polarized"].basis.tolist()
    expect(len(pol) == 21, "polarization complement rank is not 21")
    expect(all(facts.pair(k3, row, a["v"]) == 0 for row in pol), "polarization complement is not orthogonal to v")
    # 21 independent vectors orthogonal to v, with v·v > 0 in a (3,19) lattice,
    # span v's complement, so the signature must be (2,19)
    expect(abs(facts.det(facts.gram_of(pol, k3))) == 2 * d, "polarization complement |det| is not 2d")
    expect((a["pol_sig"].plus, a["pol_sig"].minus) == (2, 19), "polarization complement signature is not (2,19)")
    ext = a["ext"].tolist()
    expect(facts.matmul(facts.matmul(ext, sharp), facts.transpose(ext)) == sharp, "extension does not preserve the ambient Gram")
    expect(facts.matmul(basis, ext) == facts.matmul(_SWAP, basis), "extension does not restrict to g")
    expect(facts.matmul(comp, ext) == comp, "extension is not the identity on the complement")


def _k3_op(d: int) -> Op:
    return Op("k3", lambda p: _k3_run(p, d), lambda a: _k3_check(d, a))


def _k3_prepare(seed: int, workdir: Path) -> list[int]:
    degrees = list(range(1, K3_DEGREES + 1))
    random.Random(f"k3-sweep:{seed}").shuffle(degrees)
    return degrees


def _k3_rounds(degrees: list[int]) -> Iterator[list[Op]]:
    for d in degrees:
        yield [_k3_op(d)]


def _k3_trace_ops(degrees: list[int]) -> list[Op]:
    return [_k3_op(d) for d in degrees[:K3_TRACE_OPS]]


K3_SWEEP = Workload(
    name="k3-sweep",
    prepare=_k3_prepare,
    # d outside 1..200, so the warm-up never repeats a measured input
    warmup=lambda degrees: [_k3_op(K3_DEGREES + 1)],
    rounds=_k3_rounds,
    trace_ops=_k3_trace_ops,
)


# ---------------------------------------------------------------------------
# finite-search: glue enumeration, form isomorphism and short-vector search
# ---------------------------------------------------------------------------

U22 = facts.block_diag(facts.scaled_u(2), facts.scaled_u(2))
U32 = facts.block_diag(facts.scaled_u(3), facts.scaled_u(3))
U23 = facts.block_diag(facts.scaled_u(2), facts.scaled_u(2), facts.scaled_u(2))

# (name, Gram, number of isotropic subgroups, copies per round); the counts
# agree with the all-subgroup oracle of tests/test_glue.py
GLUE_LADDER = (("U(2)^2", U22, 16, 4), ("U(3)^2", U32, 25, 2), ("U(2)^3", U23, 171, 1))
# the median op of a round is one of these; their cost spreads from 0.2 to 10 ms,
# so a run needs thousands of them for its median not to follow the seed
RANDOM_PER_ROUND = 800
AN_RANKS = range(1, 9)
# (norm, copies per round): eight copies of the norm -6 count keep the 11th
# slowest op of a run among them, with U(2)^3 (one per round) ahead of them,
# for any run of 2 to 10 rounds; a 30 s run holds 4 to 6
E8_NORMS = ((-2, 1), (-4, 1), (-6, 8))


def _random_even_gram(rng: random.Random, max_rank: int = 4, max_det: int = 50) -> list[list[int]]:
    """The criterion-5 family: even, non-degenerate, rank ≤ 4, |det| ≤ 50."""
    while True:
        n = rng.randint(1, max_rank)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 2 * rng.randint(-4, 4)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        d = facts.det(rows)
        if d != 0 and abs(d) <= max_det:
            return rows


def _glue_run(p, gram):
    L = p.lattice.make_lattice(gram)
    form = p.lattice.discriminant_form(L)
    subs = p.glue.isotropic_subgroups(form)
    return form, subs, [p.glue.overlattice_from_glue(G) for G in subs]


def _glue_op(gram, expected_count: int | None) -> Op:
    def check(answer):
        form, subs, overs = answer
        if expected_count is None:
            count = facts.isotropic_subgroup_count(
                form.group.invariant_factors, form.q_values, form.b_values.tolist()
            )
        else:
            count = expected_count
        expect(len(subs) == count, f"{len(subs)} isotropic subgroups, expected {count}")
        facts.check_glue(gram, [G.generators.tolist() for G in subs], [M.gram.tolist() for M in overs])

    return Op("glue", lambda p: _glue_run(p, gram), check)


def _iso_op(gram, negate: bool) -> Op:
    # a hyperbolic form u(n) is isometric to its negative via (x, y) -> (x, -y)
    def run(p):
        form = p.lattice.discriminant_form(p.lattice.make_lattice(gram))
        return p.lattice.disc_form_isomorphic(form, form, negate=negate)

    return Op("iso", run, lambda answer: expect(answer is True, "u(n)^k is not isometric to ±itself"))


def _norm_op(gram, norm: int, expected: int) -> Op:
    def run(p):
        return p.embeddings.count_norm_vectors(p.lattice.make_lattice(gram), norm)

    return Op("norms", run, lambda answer: expect(answer == expected, f"{answer} vectors of norm {norm}, expected {expected}"))


def _finite_round(rng: random.Random) -> list[Op]:
    ops = []
    for _, gram, count, copies in GLUE_LADDER:
        ops += [_glue_op(gram, count) for _ in range(copies)]
        ops += [_iso_op(gram, False), _iso_op(gram, True)]
    ops += [_glue_op(_random_even_gram(rng), None) for _ in range(RANDOM_PER_ROUND)]
    ops += [_norm_op(facts.E8_NEG, m, 240 * facts.sigma3(-m // 2)) for m, copies in E8_NORMS for _ in range(copies)]
    ops += [_norm_op(facts.an_gram(n), 2, n * (n + 1)) for n in AN_RANKS]
    rng.shuffle(ops)
    return ops


def _finite_rounds(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(f"finite-search:{seed}")
    while True:
        yield _finite_round(rng)


def _finite_trace_ops(seed: int) -> list[Op]:
    return _finite_round(random.Random(f"finite-search:{seed}"))


FINITE_SEARCH = Workload(
    name="finite-search",
    prepare=lambda seed, workdir: seed,
    # one op of each kind but the two slowest, so every code path has run once
    warmup=lambda seed: [
        _glue_op(U22, 16), _glue_op(U32, 25), _iso_op(U22, True), _norm_op(facts.E8_NEG, -2, 240),
        _norm_op(facts.an_gram(4), 2, 20), _glue_op(_random_even_gram(random.Random(seed)), None),
    ],
    rounds=_finite_rounds,
    trace_ops=_finite_trace_ops,
)


# ---------------------------------------------------------------------------
# cli-mix: every subcommand in-process through cli.run, inputs repeating
# ---------------------------------------------------------------------------

CLI_TRACE_CYCLES = 8
BAD_INPUT_PREFIX = "bad-input "


def _cli_run(p, argv: list[str], stdin_text: str):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = p.cli.run(["--json", *argv])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _cli_op(argv: list[str], check: Callable[[dict], None], *, stdin: str = "", files: tuple[Path, ...] = (),
            error: tuple[int, ...] = ()) -> Op:
    """A request that must exit 0 with a payload passing ``check``, or, when
    ``error`` lists exit codes, must print one JSON error line with one of them."""
    input_bytes = len(stdin.encode()) + sum(f.stat().st_size for f in files if f.exists())

    def verify(answer):
        code, text = answer
        lines = text.splitlines()
        expect(len(lines) == 1, f"{argv[0]}: expected one output line, got {len(lines)}")
        data = json.loads(lines[0])
        if error:
            expect(code in error, f"{argv[0]}: exit code {code}, expected one of {error}")
            expect(set(data) == {"error", "detail"}, f"{argv[0]}: error line is not {{error, detail}}")
        else:
            expect(code == 0, f"{argv[0]}: exit code {code}")
        check(data)

    return Op("cli:" + argv[0], lambda p: _cli_run(p, argv, stdin), verify, input_bytes)


def _info_check(rank, det, sig, factors):
    def check(data):
        expect(
            (data["rank"], data["det"], data["signature"], data["invariant_factors"], data["even"])
            == (rank, det, sig, factors, True)
            and data["disc_order"] == math.prod(factors)
            and data["min_generators"] == len(factors),
            f"info: wrong invariants {data}",
        )

    return check


def _discform_check(factors, hist):
    def check(data):
        q = [Fraction(x) for x in data["q"]]
        b = [[Fraction(x) for x in row] for row in data["b"]]
        expect(data["invariant_factors"] == factors, "discform: wrong invariant factors")
        expect(facts.q_histogram_from_form(factors, q, b) == hist, "discform: q-value distribution differs")

    return check


def _nikulin_check(outcome, failed):
    def check(data):
        expect((data["outcome"], data["failed_conditions"]) == (outcome, failed), f"nikulin: got {data}")

    return check


def _iota_check(d):
    def check(data):
        sharp = facts.lambda_sharp_gram()
        expect(data["ambient"]["gram"] == sharp, "iota2d: ambient is not LambdaSharp")
        expect(facts.gram_of(data["basis"], sharp) == facts.lambda2d_gram(d) == data["gram"], "iota2d: wrong Gram")
        comp = data["complement"]
        expect(data["primitive"] is True and comp["rank"] == 7 and comp["disc_group"] == [2 * d]
               and abs(comp["det"]) == 2 * d, "iota2d: wrong complement invariants")
        expect(all(facts.pair(sharp, c, b) == 0 for c in comp["basis"] for b in data["basis"]),
               "iota2d: complement not orthogonal")

    return check


def _complement_check(ambient, v, d):
    def check(data):
        basis = data["basis"]
        expect(len(basis) == 21 and all(facts.pair(ambient, row, v) == 0 for row in basis),
               "complement: wrong rank or not orthogonal")
        expect(data["gram"] == facts.gram_of(basis, ambient), "complement: Gram does not match basis")
        expect(abs(facts.det(data["gram"])) == 2 * d, "complement: |det| is not 2d")

    return check


def _period_check(gram, re, im, ns_rank):
    def check(data):
        expect(data["psi_omega_conj"] == "4" and data["minimal_hodge_equals_trans"] is True,
               "period-split: wrong pairing or Hodge closure")
        ns, trans = data["ns"], data["trans"]
        expect(len(ns["basis"]) == ns_rank and len(trans["basis"]) == 2, "period-split: wrong ranks")
        expect(all(facts.pair(gram, row, re) == 0 == facts.pair(gram, row, im) for row in ns["basis"]),
               "period-split: NS not orthogonal to the period")
        expect(all(facts.pair(gram, a, b) == 0 for a in ns["basis"] for b in trans["basis"]),
               "period-split: NS and T not orthogonal")
        for part, sig in ((ns, (0, ns_rank)), (trans, (2, 0))):
            expect(part["gram"] == facts.gram_of(part["basis"], gram), "period-split: Gram does not match basis")
            expect(facts.inertia(part["gram"]) == sig and abs(facts.det(part["gram"])) == 4,
                   "period-split: wrong signature or determinant")

    return check


def _fixed_check(ell, gens):
    dim = facts.fixed_dimension_brute(ell, gens)

    def check(data):
        basis = data["basis"]
        expect(data["fixed_dimension"] == dim == len(basis), "fixed-mod-ell: wrong dimension")
        expect(all([x % ell for x in facts.matmul([row], g)[0]] == row for row in basis for g in gens),
               "fixed-mod-ell: basis vector is not fixed")

    return check


def _overlattices_check(det_l, count):
    def check(data):
        expect(data["count"] == count == len(data["overlattices"]), "overlattices: wrong count")
        for e in data["overlattices"]:
            expect(facts.is_even_integral(e["gram"]) and abs(facts.det(e["gram"])) * e["glue_order"] ** 2 == det_l,
                   "overlattices: overlattice not even or wrong determinant")

    return check


def _binary_check(det_value, sign):
    want = sorted(
        [[sign * x for x in row] for row in form] for form in facts.reduced_even_binary_forms(det_value)
    )

    def check(data):
        expect(sorted(data["forms"]) == want, "binary-enum: wrong forms")

    return check


def _error_check(name):
    return lambda data: expect(data["error"] == name, f"expected error {name}, got {data['error']}")


def _cli_prepare(seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    uu = facts.block_diag(facts.U, facts.U)
    uu_e8 = facts.block_diag(facts.U, facts.U, facts.E8_NEG)
    re, im = [1, 1, 0, 0], [0, 0, 1, 1]
    files = {
        "period_uu.json": {"lattice": {"gram": uu}, "D": -1, "re": [str(x) for x in re], "im": [str(x) for x in im]},
        "period_uu_e8.json": {"lattice": {"gram": uu_e8}, "D": -1, "re": [str(x) for x in re + [0] * 8],
                              "im": [str(x) for x in im + [0] * 8]},
        "gens.json": {"ell": 5, "generators": [
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        ]},
    }
    for name, payload in files.items():
        (workdir / name).write_text(json.dumps(payload))
    (workdir / "malformed.json").write_text('{"ell": 5, "generators": [[[1, 0], [0, 1]]')
    missing = workdir / "missing.json"
    k3 = facts.lambda_k3_gram()
    v = [0] * 22
    v[16], v[17] = 1, 3
    complement_in = json.dumps({"ambient": {"gram": k3}, "basis": [v]})
    bad_basis = json.dumps({"ambient": {"gram": uu}, "basis": [["x", 0, 0, 0]]})
    gens = files["gens.json"]["generators"]
    hist_u2_gen6 = facts.sum_histogram(facts.hyperbolic_q_histogram(2), facts.cyclic_q_histogram(6))

    def path(name):
        return str(workdir / name)

    ok = [
        _cli_op(["info", "gen(-4)"], _info_check(1, -4, [0, 1], [4])),
        _cli_op(["info", "U(2)+gen(6)"], _info_check(3, -24, [2, 1], [2, 2, 6])),
        _cli_op(["info", "Lambda2d(7)"], _info_check(21, -14, [2, 19], [14])),
        _cli_op(["discform", "gen(-4)"], _discform_check([4], facts.cyclic_q_histogram(-4))),
        _cli_op(["discform", "U(2)+gen(6)"], _discform_check([2, 2, 6], hist_u2_gen6)),
        _cli_op(["discform", "Lambda2d(7)"], _discform_check([14], facts.cyclic_q_histogram(-14))),
        _cli_op(["nikulin", "Lambda2d(7)", "2,26"], _nikulin_check("Guaranteed", [])),
        _cli_op(["nikulin", "U(2)+gen(6)", "2,26"], _nikulin_check("Guaranteed", [])),
        _cli_op(["nikulin", "Lambda2d(7)", "2,19"], _nikulin_check("Unknown", ["i", "iii"])),
        _cli_op(["iota2d", "5"], _iota_check(5)),
        _cli_op(["complement"], _complement_check(k3, v, 3), stdin=complement_in),
        _cli_op(["period-split", path("period_uu.json")], _period_check(uu, re, im, 2),
                files=(workdir / "period_uu.json",)),
        _cli_op(["period-split", path("period_uu_e8.json")],
                _period_check(uu_e8, re + [0] * 8, im + [0] * 8, 10), files=(workdir / "period_uu_e8.json",)),
        _cli_op(["fixed-mod-ell", path("gens.json")], _fixed_check(5, gens), files=(workdir / "gens.json",)),
        _cli_op(["overlattices", "U(2)^2"], _overlattices_check(16, 16)),
        _cli_op(["binary-enum", "12", "pos"], _binary_check(12, 1)),
        _cli_op(["binary-enum", "60", "neg"], _binary_check(60, -1)),
        _cli_op(["minkowski", "4"], lambda data: expect(data["bound"] == 5760, "minkowski 4 is not 5760")),
        _cli_op(["points", "special_linear", "2", "5"], lambda data: expect(data["count"] == 120, "|SL2(F5)| is not 120")),
        _cli_op(["points", "symplectic", "2", "3"], lambda data: expect(data["count"] == 24, "|Sp2(F3)| is not 24")),
        _cli_op(["points", "orthogonal", "2", "3", "--of", "U"], lambda data: expect(data["count"] == 4, "|O(U)(F3)| is not 4")),
    ]
    errors = [
        _cli_op(["nikulin", "gen(3)", "2,26"], _error_check("OddLattice"), error=(2,)),
        _cli_op(["info", "Foo(1)"], _error_check("UnknownAtom"), error=(2,)),
        _cli_op(["info", "E8(-1)^"], _error_check("ParseError"), error=(2,)),
        _cli_op(["binary-enum", "12", "sideways"], _error_check("UsageError"), error=(1,)),
    ]
    # bad input that must give one JSON error line; the seed commit raises instead
    bad_input = [
        _cli_op(["period-split", str(missing)], lambda data: None, error=(1, 2)),
        _cli_op(["fixed-mod-ell", path("malformed.json")], lambda data: None, error=(1, 2),
                files=(workdir / "malformed.json",)),
        _cli_op(["complement"], lambda data: None, error=(1, 2), stdin=bad_basis),
    ]
    for op in bad_input:
        op.kind = BAD_INPUT_PREFIX + op.kind
    return {"ok": ok, "cycle": ok + errors + bad_input, "seed": seed}


def _cli_cycle(state: dict, rng: random.Random) -> list[Op]:
    ops = list(state["cycle"])
    rng.shuffle(ops)
    return ops


def _cli_rounds(state: dict) -> Iterator[list[Op]]:
    rng = random.Random(f"cli-mix:{state['seed']}")
    while True:
        yield _cli_cycle(state, rng)


def _cli_trace_ops(state: dict) -> list[Op]:
    rng = random.Random(state["seed"])
    return [op for _ in range(CLI_TRACE_CYCLES) for op in _cli_cycle(state, rng)]


CLI_MIX = Workload(
    name="cli-mix",
    prepare=_cli_prepare,
    warmup=lambda state: state["ok"],
    rounds=_cli_rounds,
    trace_ops=_cli_trace_ops,
)


WORKLOADS = {w.name: w for w in (K3_SWEEP, FINITE_SEARCH, CLI_MIX)}
