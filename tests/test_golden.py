"""Golden digests of the glue path: its outputs on a fixed corpus must stay
byte-identical.

Each case is one SHA-256 over a canonical JSON record of what the public
functions return: the ``discriminant_form`` q and b values, the
``isotropic_subgroups`` generators in their order, each subgroup's
``glue_order``, and each overlattice's Gram, det and signature.  U(2)^4
records the generators only, which keeps the test within a few seconds.
The stored digests live in ``golden_digests.json``; a change that means
to alter one of these outputs rewrites them with

    PYTHONPATH=src python tests/test_golden.py --write

and says why.  The test runs under any ``PYTHONHASHSEED``: nothing in
the records may depend on set or dict iteration order.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from quadlat.expr import evaluate_expr
from quadlat.glue import glue_order, isotropic_subgroups, overlattice_from_glue
from quadlat.lattice import discriminant_form, signature
from test_glue import random_even_lattice

DIGESTS = Path(__file__).with_name("golden_digests.json")
EXPRESSIONS = ("U(2)^2", "U(3)^2", "U(2)^3", "U(6)^2")
CRITERION_5_SEED, CRITERION_5_COUNT = 160451, 200


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


def compute_digests() -> dict[str, str]:
    out = {expr: _digest(_glue_record(evaluate_expr(expr))) for expr in EXPRESSIONS}
    U24 = isotropic_subgroups(discriminant_form(evaluate_expr("U(2)^4")))
    out["U(2)^4 generators"] = _digest([_rat_rows(G.generators) for G in U24])
    out[f"criterion-5 x{CRITERION_5_COUNT}"] = _digest([_glue_record(L) for L in _criterion_5_lattices()])
    return out


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


@pytest.mark.parametrize("case", [*EXPRESSIONS, "U(2)^4 generators", f"criterion-5 x{CRITERION_5_COUNT}"])
def test_glue_outputs_match_their_golden_digest(case, digests):
    assert digests[case] == json.loads(DIGESTS.read_text(encoding="utf-8"))[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1) + "\n", encoding="utf-8")
