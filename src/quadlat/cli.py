"""Command-line front end.

Subcommands expose every library operation; ``--json`` switches the
human-readable tables to machine output.  Domain errors are rendered as
one-line JSON objects {"error": code, "detail": ...} and exit 2; usage
errors exit 1.  Input files and standard input pass through one decoding
boundary, ``_decode_input``, so unreadable or malformed input is a
BadParameter error too.  The environment variable QUADLAT_CAP overrides
the brute-force caps.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys

from . import brauer, embeddings, glue, lattice, periods
from .errors import BadParameter, QuadLatError, TooLarge, UsageError
from .expr import evaluate_expr
from .lattice import Signature, _json_numbers, lattice_from_json, lattice_to_json
from .linalg import IntMatrix


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _caps() -> dict:
    raw = os.environ.get("QUADLAT_CAP")
    if raw is None:
        return {}
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise UsageError(f"QUADLAT_CAP must be a positive integer, got {raw!r}")
    return {"cap": cap}


def _parse_signature(text: str) -> Signature:
    try:
        plus, minus = (int(p) for p in text.split(","))
    except ValueError:  # not an int, or not two of them
        raise BadParameter("signature must look like '2,26'")
    if plus < 0 or minus < 0:
        raise BadParameter("signature counts must be non-negative")
    return Signature(plus, minus)


def _decode_input(path: str | None, convert):
    """Read JSON from the file at ``path`` (standard input when None) and
    convert it into library objects.

    This is the one place the CLI decodes input.  An OSError, ValueError
    (JSONDecodeError included), TypeError or LookupError raised while
    reading or converting becomes BadParameter; domain errors pass
    through unchanged.
    """
    source = "standard input" if path is None else repr(path)
    try:
        if path is None:
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        return convert(data)
    except (OSError, ValueError, TypeError, LookupError) as exc:
        raise BadParameter(f"bad input in {source}: {exc}") from exc


def _embedding_to_json(E: embeddings.SublatticeEmbedding) -> dict:
    return {
        "ambient": lattice_to_json(E.ambient),
        "basis": E.basis.tolist(),
        "gram": embeddings.induced_gram(E).tolist(),
    }


def _embedding_from_json(data: dict) -> embeddings.SublatticeEmbedding:
    if not isinstance(data, dict) or "ambient" not in data or "basis" not in data:
        raise BadParameter("embedding JSON needs 'ambient' and 'basis' keys")
    amb = lattice_from_json(data["ambient"])
    basis = data["basis"]
    # more rows than the ambient rank are dependent: refused before any row is read
    if isinstance(basis, list) and len(basis) > amb.rank:
        raise BadParameter("basis rows are linearly dependent")
    return embeddings.SublatticeEmbedding(amb, IntMatrix(_json_numbers(basis, "basis"), ncols=amb.rank))


def _group_text(factors) -> str:
    if not factors:
        return "trivial"
    return " x ".join(f"Z/{d}" for d in factors)


def _cmd_info(args) -> tuple[dict, list[str]]:
    L = evaluate_expr(args.expr)
    sig = lattice.signature(L)
    dg = lattice.discriminant_group(L)
    out = {
        "expr": L.label,
        "rank": L.rank,
        "det": L.det,
        "signature": [sig.plus, sig.minus],
        "even": lattice.is_even(L),
        "invariant_factors": list(dg.invariant_factors),
        "disc_order": dg.order,
        "min_generators": lattice.min_generators(dg),
    }
    lines = [
        f"expr:            {L.label}",
        f"rank:            {L.rank}",
        f"det:             {L.det}",
        f"signature:       ({sig.plus},{sig.minus})",
        f"even:            {lattice.is_even(L)}",
        f"disc group:      {_group_text(dg.invariant_factors)} (order {dg.order})",
        f"min generators:  {lattice.min_generators(dg)}",
    ]
    return out, lines


def _cmd_discform(args) -> tuple[dict, list[str]]:
    L = evaluate_expr(args.expr)
    F = lattice.discriminant_form(L)
    q_values = F.q_values
    out = {
        "expr": L.label,
        "invariant_factors": list(F.group.invariant_factors),
        "generator_lifts": [[str(x) for x in row] for row in F.group.generator_lifts],
        "q": [str(x) for x in q_values],
        "b": [[str(x) for x in row] for row in F.b_values],
    }
    lines = [f"expr:  {L.label}", f"group: {_group_text(F.group.invariant_factors)}"]
    lines.extend(f"q(g{i + 1}) = {q} (mod 2)" for i, q in enumerate(q_values))
    return out, lines


def _cmd_nikulin(args) -> tuple[dict, list[str]]:
    L = evaluate_expr(args.expr)
    verdict = embeddings.nikulin_check(L, _parse_signature(args.signature))
    out = {
        "expr": L.label,
        "target": args.signature,
        "outcome": verdict.outcome,
        "failed_conditions": list(verdict.failed_conditions),
    }
    line = f"{verdict.outcome}"
    if verdict.failed_conditions:
        line += " (fails " + ", ".join(f"({c})" for c in verdict.failed_conditions) + ")"
    return out, [line]


def _cmd_iota2d(args) -> tuple[dict, list[str]]:
    E = embeddings.build_iota2d(args.d)
    comp = embeddings.orthogonal_complement(E)
    comp_lat = embeddings.as_lattice(comp)
    dg = lattice.discriminant_group(comp_lat)
    out = _embedding_to_json(E)
    out["primitive"] = embeddings.is_primitive(E)
    out["complement"] = {
        "basis": comp.basis.tolist(),
        "rank": comp.rank,
        "det": comp_lat.det,
        "disc_group": list(dg.invariant_factors),
    }
    lines = [
        f"embedding of Lambda2d({args.d}) into LambdaSharp",
        f"primitive:        {out['primitive']}",
        f"complement rank:  {comp.rank}",
        f"complement |A|:   {dg.order}",
    ]
    return out, lines


def _cmd_complement(args) -> tuple[dict, list[str]]:
    E = _decode_input(None, _embedding_from_json)
    comp = embeddings.orthogonal_complement(E)
    return _embedding_to_json(comp), [f"complement rank: {comp.rank}", f"basis: {comp.basis.tolist()}"]


def _cmd_overlattices(args) -> tuple[dict, list[str]]:
    L = evaluate_expr(args.expr)
    subs = glue.isotropic_subgroups(lattice.discriminant_form(L), **_caps())
    entries = [{"glue_order": glue.glue_order(G), "gram": glue.overlattice_from_glue(G).gram.tolist()} for G in subs]
    out = {"expr": L.label, "count": len(entries), "overlattices": entries}
    lines = [f"{len(entries)} even overlattice(s) of {L.label}"]
    lines.extend(f"  glue order {e['glue_order']}: {e['gram']}" for e in entries)
    return out, lines


def _cmd_binary_enum(args) -> tuple[dict, list[str]]:
    sign = 1 if args.sign in ("pos", "+1") else -1
    forms = glue.enumerate_even_binary(args.det, sign, **_caps())
    out = {"det": args.det, "sign": sign, "count": len(forms), "forms": [f.gram.tolist() for f in forms]}
    lines = [f"{len(forms)} reduced even definite binary form(s) with det {args.det}"]
    lines.extend(f"  {f.gram.tolist()}" for f in forms)
    return out, lines


def _cmd_period_split(args) -> tuple[dict, list[str]]:
    omega = _decode_input(args.file, periods.period_from_json)
    split = periods.transcendental(omega)
    minimal = periods.minimal_hodge_sublattice(omega)
    out = {
        "psi_omega_conj": str(periods.pairing_with_conjugate(omega)),
        "ns": {
            "basis": split.ns.basis.tolist(),
            "gram": embeddings.induced_gram(split.ns).tolist(),
        },
        "trans": {
            "basis": split.trans.basis.tolist(),
            "gram": embeddings.induced_gram(split.trans).tolist(),
        },
        "minimal_hodge_equals_trans": minimal.basis == split.trans.basis,
    }
    lines = [
        f"psi(omega, conj) = {out['psi_omega_conj']}",
        f"NS rank {split.ns.rank}, gram {out['ns']['gram']}",
        f"T  rank {split.trans.rank}, gram {out['trans']['gram']}",
        f"minimal Hodge sublattice equals T: {out['minimal_hodge_equals_trans']}",
    ]
    return out, lines


def _cmd_minkowski(args) -> tuple[dict, list[str]]:
    bound = brauer.minkowski_bound(args.n)
    return {"n": args.n, "bound": bound}, [str(bound)]


def _group_from_json(data) -> brauer.FiniteMatrixGroupModL:
    if not isinstance(data, dict) or "ell" not in data or "generators" not in data:
        raise BadParameter("input JSON needs 'ell' and 'generators' keys")
    gens = _json_numbers(data["generators"], "generators")
    dim = _json_numbers(data.get("dim"), "dim")
    if dim is None:
        if not gens:
            raise BadParameter("empty generator list needs an explicit 'dim'")
        dim = len(gens[0])
    ell = operator.index(_json_numbers(data["ell"], "ell"))
    return brauer.FiniteMatrixGroupModL(ell, operator.index(dim), tuple(gens))


def _cmd_fixed_mod_ell(args) -> tuple[dict, list[str]]:
    S = _decode_input(args.file, _group_from_json)
    dimension, basis = brauer.fixed_subspace_mod_ell(S)
    out = {"ell": S.ell, "dim": S.dim, "fixed_dimension": dimension, "basis": basis.tolist()}
    return out, [f"fixed dimension: {dimension}", f"basis: {basis.tolist()}"]


def _cmd_points(args) -> tuple[dict, list[str]]:
    of = None
    if args.group == "orthogonal":
        if args.of is None:
            raise UsageError("points orthogonal needs --of EXPR")
        of = evaluate_expr(args.of)
    count = brauer.brute_force_points(args.group, args.n, args.ell, of=of, **_caps())
    return {"group": args.group, "n": args.n, "ell": args.ell, "count": count}, [str(count)]


def _build_parser() -> _Parser:
    parser = _Parser(prog="quadlat", description="Exact toolkit for even integral quadratic lattices")
    parser.add_argument("--json", action="store_true", help="machine-readable JSON output")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("info", help="rank, det, signature, parity, discriminant group")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("discform", help="discriminant form q and b values")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_discform)

    p = sub.add_parser("nikulin", help="primitive-embedding criterion against a target signature")
    p.add_argument("expr")
    p.add_argument("signature", help="target signature, e.g. 2,26")
    p.set_defaults(handler=_cmd_nikulin)

    p = sub.add_parser("iota2d", help="canonical embedding of Lambda2d(d) into LambdaSharp")
    p.add_argument("d", type=int)
    p.set_defaults(handler=_cmd_iota2d)

    p = sub.add_parser("complement", help="orthogonal complement of an embedding JSON on stdin")
    p.set_defaults(handler=_cmd_complement)

    p = sub.add_parser("overlattices", help="even overlattices via isotropic glue subgroups")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_overlattices)

    p = sub.add_parser("binary-enum", help="reduced even definite binary forms of given det")
    p.add_argument("det", type=int)
    p.add_argument("sign", choices=["pos", "neg", "+1", "-1"])
    p.set_defaults(handler=_cmd_binary_enum)

    p = sub.add_parser("period-split", help="NS/T splitting of a period JSON file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_period_split)

    p = sub.add_parser("minkowski", help="order bound for finite subgroups of GL_n(Z)")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_minkowski)

    p = sub.add_parser("fixed-mod-ell", help="fixed subspace of matrix generators mod ell")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_fixed_mod_ell)

    p = sub.add_parser("points", help="brute-force point count of a classical group mod ell")
    p.add_argument("group", choices=["special_linear", "symplectic", "orthogonal"])
    p.add_argument("n", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("--of", help="lattice expression for the orthogonal form")
    p.set_defaults(handler=_cmd_points)

    return parser


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (see --help)")
        try:
            out, lines = args.handler(args)
            text = json.dumps(out) if args.json else "\n".join(lines)
        except ValueError as exc:
            # Python will not write an int of more than
            # sys.get_int_max_str_digits() digits as text
            if "integer string conversion" not in str(exc):
                raise
            limit = sys.get_int_max_str_digits()
            raise TooLarge(f"an integer in the answer has more than {limit} digits") from None
    except QuadLatError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}))
        return 1 if isinstance(exc, UsageError) else 2
    except SystemExit as exc:  # argparse after -h/--help; its errors raise UsageError
        return exc.code
    print(text)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send the rest to devnull, so that
        # the flush at exit does not fail again, and exit 1 as Python does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
