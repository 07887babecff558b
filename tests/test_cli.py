import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadlat
from quadlat import errors, periods
from quadlat.cli import _build_parser, run
from quadlat.errors import QuadLatError
from quadlat.expr import evaluate_expr
from quadlat.glue import glue_order, isotropic_subgroups
from quadlat.lattice import discriminant_form, lattice_to_json, make_lattice, standard


def test_every_error_code_is_its_class_name():
    # the "error" field of a JSON error line is the class name of what was raised
    subclasses = [cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, QuadLatError)]
    assert len(subclasses) == 26 and QuadLatError.code == "Error"
    assert all(cls.code == cls.__name__ for cls in subclasses if cls is not QuadLatError)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, "--json", *argv)
    return code, json.loads(out)


class TestInfo:
    def test_lambda2d_table(self, capsys):
        code, out = invoke(capsys, "info", "Lambda2d(3)")
        assert code == 0
        assert "rank:            21" in out
        assert "(2,19)" in out
        assert "Z/6" in out

    def test_json_payload(self, capsys):
        code, data = invoke_json(capsys, "info", "Lambda2d(3)")
        assert code == 0
        assert data["rank"] == 21
        assert data["signature"] == [2, 19]
        assert data["invariant_factors"] == [6]
        assert data["min_generators"] == 1
        assert data["even"] is True

    def test_reports_signed_det_and_group_order_separately(self, capsys):
        _, data = invoke_json(capsys, "info", "Lambda2d(5)")
        assert data["det"] == -10 and data["disc_order"] == 10


class TestNikulin:
    def test_guaranteed(self, capsys):
        code, data = invoke_json(capsys, "nikulin", "Lambda2d(5)", "2,26")
        assert code == 0 and data["outcome"] == "Guaranteed"

    def test_unknown_with_failures(self, capsys):
        code, data = invoke_json(capsys, "nikulin", "Lambda2d(5)", "2,19")
        assert code == 0
        assert data["outcome"] == "Unknown"
        assert data["failed_conditions"] == ["i", "iii"]

    def test_malformed_signature(self, capsys):
        code, data = invoke_json(capsys, "nikulin", "U", "2;26")
        assert code == 2 and data["error"] == "BadParameter"


class TestDiscform:
    def test_rank_one(self, capsys):
        code, data = invoke_json(capsys, "discform", "gen(-4)")
        assert code == 0
        assert data["invariant_factors"] == [4]
        assert data["q"] == ["7/4"]  # -1/4 mod 2

    def test_odd_lattice_error(self, capsys):
        code, data = invoke_json(capsys, "discform", "gen(3)")
        assert code == 2 and data["error"] == "OddLattice"


class TestMinkowski:
    def test_value(self, capsys):
        code, out = invoke(capsys, "minkowski", "4")
        assert code == 0 and out.strip() == "5760"

    def test_json(self, capsys):
        code, data = invoke_json(capsys, "minkowski", "2")
        assert code == 0 and data == {"n": 2, "bound": 24}

    def test_domain_error(self, capsys):
        code, data = invoke_json(capsys, "minkowski", "0")
        assert code == 2 and data["error"] == "BadParameter"


class TestPoints:
    def test_symplectic(self, capsys):
        code, data = invoke_json(capsys, "points", "symplectic", "2", "5")
        assert code == 0 and data["count"] == 120

    def test_orthogonal_needs_lattice(self, capsys):
        code, data = invoke_json(capsys, "points", "orthogonal", "2", "3")
        assert code == 1 and data["error"] == "UsageError"

    def test_orthogonal_of_u(self, capsys):
        code, data = invoke_json(capsys, "points", "orthogonal", "2", "3", "--of", "U")
        assert code == 0 and data["count"] == 4

    def test_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QUADLAT_CAP", "10")
        code, data = invoke_json(capsys, "points", "special_linear", "2", "3")
        assert code == 2 and data["error"] == "TooLarge"

    @pytest.mark.parametrize("cap", ["0", "abc"])
    def test_bad_cap_is_a_usage_error(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("QUADLAT_CAP", cap)
        code, out = invoke(capsys, "--json", "points", "special_linear", "2", "5")
        assert code == 1 and out.count("\n") == 1 and json.loads(out)["error"] == "UsageError"


class TestIotaAndComplement:
    def test_iota2d_payload(self, capsys):
        code, data = invoke_json(capsys, "iota2d", "4")
        assert code == 0
        assert data["primitive"] is True
        assert data["complement"]["rank"] == 7
        assert data["complement"]["disc_group"] == [8]

    def test_complement_pipes_from_iota(self, capsys, monkeypatch):
        code, data = invoke_json(capsys, "iota2d", "2")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        code2, comp = invoke_json(capsys, "complement")
        assert code2 == 0
        assert len(comp["basis"]) == 7

    def test_complement_of_plane(self, capsys, monkeypatch):
        uu = {
            "ambient": {"gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]},
            "basis": [[1, 1, 0, 0], [0, 0, 1, 1]],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(uu)))
        code, data = invoke_json(capsys, "complement")
        assert code == 0
        assert data["gram"] == [[-2, 0], [0, -2]]

    def test_bad_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
        code, data = invoke_json(capsys, "complement")
        assert code == 2 and data["error"] == "BadParameter"


class TestOverlatticesAndBinary:
    def test_overlattices(self, capsys):
        code, data = invoke_json(capsys, "overlattices", "gen(2) + gen(-2)")
        assert code == 0
        assert data["count"] == 2
        assert sorted(e["glue_order"] for e in data["overlattices"]) == [1, 2]

    @pytest.mark.parametrize("expr", ["U(2)^3", "U(3)^2", "U(2)+gen(6)", "gen(6) + gen(-6)"])
    def test_glue_orders_agree_with_the_glue_path(self, capsys, expr):
        # the CLI reports glue_order; |M/L|² = det L / det M, with det M from an
        # elimination of the printed Gram, checks it independently
        code, data = invoke_json(capsys, "overlattices", expr)
        L = evaluate_expr(expr)
        subgroups = isotropic_subgroups(discriminant_form(L))
        assert code == 0 and [e["glue_order"] for e in data["overlattices"]] == list(map(glue_order, subgroups))
        assert all(e["glue_order"] ** 2 * make_lattice(e["gram"]).det == L.det for e in data["overlattices"])

    def test_binary_enum(self, capsys):
        code, data = invoke_json(capsys, "binary-enum", "3", "pos")
        assert code == 0 and data["forms"] == [[[2, 1], [1, 2]]]

    def test_binary_enum_neg_sign(self, capsys):
        code, data = invoke_json(capsys, "binary-enum", "4", "neg")
        assert code == 0 and data["forms"] == [[[-2, 0], [0, -2]]]


UU_PERIOD = {
    "lattice": {"gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]},
    "D": -1,
    "re": ["1", "1", "0", "0"],
    "im": ["0", "0", "1", "1"],
}


class TestPeriodSplit:
    def test_example_file(self, capsys, tmp_path):
        f = tmp_path / "period.json"
        f.write_text(json.dumps(UU_PERIOD))
        code, data = invoke_json(capsys, "period-split", str(f))
        assert code == 0
        assert data["psi_omega_conj"] == "4"
        assert data["ns"]["gram"] == [[-2, 0], [0, -2]]
        assert data["trans"]["gram"] == [[2, 0], [0, 2]]
        assert data["minimal_hodge_equals_trans"] is True

    def test_invalid_period(self, capsys, tmp_path):
        payload = {
            "lattice": {"gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]},
            "D": -1,
            "re": ["1", "0", "0", "0"],
            "im": ["0", "1", "0", "0"],
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(payload))
        code, data = invoke_json(capsys, "period-split", str(f))
        assert code == 2 and data["error"] == "NotIsotropic"

    def test_one_hodge_split_per_request(self, capsys, tmp_path, monkeypatch):
        calls = Counter()
        for name in ("neron_severi", "transcendental"):
            def counted(omega, _original=getattr(periods, name), _name=name):
                calls[_name] += 1
                return _original(omega)

            monkeypatch.setattr(periods, name, counted)
        f = tmp_path / "period.json"
        f.write_text(json.dumps(UU_PERIOD))
        assert invoke(capsys, "--json", "period-split", str(f)) == (
            0,
            '{"psi_omega_conj": "4", "ns": {"basis": [[1, -1, 0, 0], [0, 0, 1, -1]], '
            '"gram": [[-2, 0], [0, -2]]}, "trans": {"basis": [[1, 1, 0, 0], [0, 0, 1, 1]], '
            '"gram": [[2, 0], [0, 2]]}, "minimal_hodge_equals_trans": true}\n',
        )
        assert calls == {"neron_severi": 1, "transcendental": 1}
        calls.clear()
        assert invoke(capsys, "period-split", str(f)) == (
            0,
            "psi(omega, conj) = 4\nNS rank 2, gram [[-2, 0], [0, -2]]\n"
            "T  rank 2, gram [[2, 0], [0, 2]]\nminimal Hodge sublattice equals T: True\n",
        )
        assert calls == {"neron_severi": 1, "transcendental": 1}

    def test_discriminant_above_bound_refused_quickly(self, capsys, tmp_path):
        f = tmp_path / "period.json"
        for d in (-(10**18) - 3, -periods.DISCRIMINANT_BOUND - 1):
            f.write_text(json.dumps(UU_PERIOD | {"D": d}))
            start = time.perf_counter()
            code, out = invoke(capsys, "--json", "period-split", str(f))
            assert time.perf_counter() - start < 0.5
            assert code == 2
            assert out.count("\n") == 1 and json.loads(out)["error"] == "TooLarge"


    def test_exponent_notation_refused_quickly(self, capsys, tmp_path):
        # Fraction("1e1000000000") would build the whole power of ten
        f = tmp_path / "period.json"
        f.write_text(json.dumps(UU_PERIOD | {"re": ["1e1000000000", 1, 0, 0]}))
        start = time.perf_counter()
        code, out = invoke(capsys, "--json", "period-split", str(f))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out.count("\n") == 1 and json.loads(out)["error"] == "BadParameter"


class TestFixedModEll:
    def test_swap_generators(self, capsys, tmp_path):
        payload = {"ell": 5, "generators": [[[0, 1], [1, 0]]]}
        f = tmp_path / "gens.json"
        f.write_text(json.dumps(payload))
        code, data = invoke_json(capsys, "fixed-mod-ell", str(f))
        assert code == 0
        assert data["fixed_dimension"] == 1
        assert data["basis"] == [[1, 1]]


class TestInputShapeRefusals:
    """JSON inputs of the wrong shape are refused with their own message."""

    def test_fixed_mod_ell_empty_generators_need_a_dim(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        f.write_text(json.dumps({"ell": 5, "generators": []}))
        code, out = invoke(capsys, "--json", "fixed-mod-ell", str(f))
        _one_error_line(code, out, "BadParameter")
        assert json.loads(out)["detail"] == "empty generator list needs an explicit 'dim'"
        f.write_text(json.dumps({"ell": 5, "dim": 2, "generators": []}))
        code, data = invoke_json(capsys, "fixed-mod-ell", str(f))
        assert code == 0 and data["fixed_dimension"] == 2

    def test_period_split_array_refused(self, capsys, tmp_path):
        f = tmp_path / "period.json"
        f.write_text(json.dumps([UU_PERIOD]))
        code, out = invoke(capsys, "--json", "period-split", str(f))
        _one_error_line(code, out, "BadParameter")
        assert json.loads(out)["detail"] == "period JSON must be an object"


class TestBadInput:
    """Unreadable or malformed input is one JSON error line, never a traceback."""

    def test_period_split_missing_file(self, capsys, tmp_path):
        code, out = invoke(capsys, "--json", "period-split", str(tmp_path / "missing.json"))
        assert code == 2
        assert out.count("\n") == 1 and json.loads(out)["error"] == "BadParameter"

    def test_fixed_mod_ell_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "malformed.json"
        f.write_text('{"ell": 5, "generators": [[[1, 0], [0, 1]]')
        code, out = invoke(capsys, "--json", "fixed-mod-ell", str(f))
        assert code == 2
        assert out.count("\n") == 1 and json.loads(out)["error"] == "BadParameter"

    def test_complement_string_entry_in_basis(self, capsys, monkeypatch):
        uu = {
            "ambient": {"gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]},
            "basis": [["x", 0, 0, 0]],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(uu)))
        code, out = invoke(capsys, "--json", "complement")
        assert code == 2
        assert out.count("\n") == 1 and json.loads(out)["error"] == "BadParameter"


    def test_complement_more_rows_than_rank_refused_quickly(self, capsys, monkeypatch):
        # refused before the k×k product B·Bᵀ of 10⁵ rows is formed
        plane = {"ambient": {"gram": [[0, 1], [1, 0]]}, "basis": [[1, 0]] * 10**5}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(plane)))
        start = time.perf_counter()
        code, out = invoke(capsys, "--json", "complement")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "BadParameter", "detail": "basis rows are linearly dependent"}

    def test_complement_more_rows_than_rank_refused_before_rows_are_read(self, capsys, monkeypatch):
        def refuse(value, name):
            raise AssertionError(f"{name} was walked")

        plane = {"ambient": {"gram": [[0, 1], [1, 0]]}, "basis": [[1, 0]] * 10**5}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(plane)))
        monkeypatch.setattr("quadlat.cli._json_numbers", refuse)
        code, out = invoke(capsys, "--json", "complement")
        assert code == 2
        assert json.loads(out) == {"error": "BadParameter", "detail": "basis rows are linearly dependent"}


class TestRankCap:
    """Oversized expressions are refused before any Gram matrix is built."""

    @pytest.mark.parametrize("expr", ["U^100000", "An(1000000)", "(U^1000)^1000"])
    def test_refused_quickly_with_one_json_line(self, capsys, expr):
        start = time.perf_counter()
        code, out = invoke(capsys, "--json", "info", expr)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out.count("\n") == 1
        data = json.loads(out)
        assert data["error"] == "TooLarge" and "rank" in data["detail"]


class TestNormSearchCap:
    def test_301_digit_iota2d_refused_with_one_json_line(self, capsys):
        start = time.perf_counter()
        code, out = invoke(capsys, "--json", "iota2d", "1" + "0" * 300)
        assert time.perf_counter() - start < 20  # about 2 s for the 2·10⁵ nodes
        assert code == 2
        assert out.count("\n") == 1
        data = json.loads(out)
        assert data["error"] == "TooLarge" and "norm search" in data["detail"]


class TestGlueSearchCap:
    def test_u2_fifth_refused_with_one_json_line(self, capsys, monkeypatch):
        # |A| = 1024 is inside the |A| cap, and QUADLAT_CAP does not lift the search cap
        monkeypatch.setenv("QUADLAT_CAP", str(10**9))
        start = time.perf_counter()
        code, out = invoke(capsys, "--json", "overlattices", "U(2)^5")
        assert time.perf_counter() - start < 10  # about 2.5 s
        assert code == 2
        assert out.count("\n") == 1
        data = json.loads(out)
        assert data["error"] == "TooLarge" and "glue search" in data["detail"]


class TestPointsCapAndHugePrimes:
    """The scan cap is decided without building ell^(n²), and before any
    trial division; primality tests use integer square roots only."""

    HUGE = 10**400 + 1  # 353 divides it; its square root overflows a float

    @pytest.mark.parametrize("n, ell", [("3000", "3"), ("1", str(HUGE))], ids=["n3000", "ell-huge"])
    def test_refused_quickly_with_one_json_line(self, capsys, n, ell):
        start = time.perf_counter()
        code, out = invoke(capsys, "--json", "points", "special_linear", n, ell)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "TooLarge"

    def test_fixed_mod_ell_huge_composite(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps({"ell": self.HUGE, "generators": [[[1]]]}))
        code, out = invoke(capsys, "--json", "fixed-mod-ell", str(path))
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == "BadParameter"


class TestIntegerTextLimit:
    """Python refuses int/str conversions of more than
    sys.get_int_max_str_digits() digits; such requests give one JSON line."""

    @pytest.fixture
    def limit(self):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("this interpreter has no int/str digit limit")
        return limit

    def _refused(self, capsys, argv, error):
        code, out = invoke(capsys, "--json", *argv)
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == error

    @pytest.mark.parametrize("n", ["1001", "1332", "20000"])
    def test_minkowski_above_rank_cap(self, capsys, n):
        start = time.perf_counter()
        self._refused(capsys, ["minkowski", n], "TooLarge")
        assert time.perf_counter() - start < 0.5

    def test_minkowski_at_rank_cap(self, capsys):
        code, data = invoke_json(capsys, "minkowski", "1000")
        assert code == 0 and data["bound"] > 0

    def test_literal_too_long_to_parse(self, capsys, limit):
        self._refused(capsys, ["info", f"gen({'7' * (limit + 1)})"], "ParseError")

    def test_det_too_long_to_print(self, capsys, limit):
        k = limit // 2  # 10^k prints, its cube does not
        self._refused(capsys, ["info", f"gen({10**k})^3"], "TooLarge")


class TestFixedModEllLargePrime:
    def test_eighteen_digit_prime_is_quick(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps({"ell": 10**18 + 3, "generators": [[[1, 1], [0, 1]]]}))
        start = time.perf_counter()
        code, data = invoke_json(capsys, "fixed-mod-ell", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 0 and data["fixed_dimension"] == 1


class TestRepeatedRequests:
    """No state leaks from one request to the next in one process."""

    REQUESTS = (
        ["binary-enum", "12", "sideways"],
        ["info", "gen(0)"],
        ["info", "Lambda2d(3)"],
        ["--json", "nikulin", "Lambda2d(5)", "2,19"],
    )

    def test_second_pass_is_identical(self, capsys):
        first = [invoke(capsys, *argv) for argv in self.REQUESTS]
        assert [code for code, _ in first] == [1, 2, 0, 0]
        assert [invoke(capsys, *argv) for argv in self.REQUESTS] == first


class TestExitCodesAndJsonDiscipline:
    def test_usage_errors_exit_one(self, capsys):
        for argv in (["nonsense"], [], ["minkowski"], ["points", "symplectic", "2"]):
            code, out = invoke(capsys, *argv)
            assert code == 1, argv
            assert json.loads(out)["error"] == "UsageError"

    def test_help_returns_zero(self, capsys):
        top = _build_parser().format_help()
        for argv in (["-h"], ["--help"], ["--json", "-h"]):
            assert invoke(capsys, *argv) == (0, top), argv
        for command, argv in [("info", ["info", "-h"]), ("info", ["--json", "info", "--help"]),
                              ("minkowski", ["minkowski", "-h"])]:
            code, out = invoke(capsys, *argv)
            assert code == 0, argv
            assert out.startswith(f"usage: quadlat {command} [-h]") and "positional arguments" in out

    def test_closed_stdout_exits_one_without_traceback(self):
        # the reader closes the pipe before the answer is written
        src = str(Path(quadlat.__file__).parents[1])
        proc = subprocess.Popen([sys.executable, "-m", "quadlat", "--json", "info", "Lambda2d(3)"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (1, b"")

    def test_domain_errors_exit_two(self, capsys):
        cases = [
            (["info", "E8(-1)^"], "ParseError"),
            (["info", "Foo"], "UnknownAtom"),
            (["info", "gen(0)"], "BadParameter"),
            (["info", "U^0"], "BadParameter"),
            *((["info", expr], "BadParameter") for expr in ("U(1,2)", "An", "An(0)", "gen(1,2)", "Lambda2d(1,2)")),
            (["nikulin", "U", "2,-1"], "BadParameter"),
            (["points", "special_linear", "2", "1"], "BadParameter"),
            (["points", "orthogonal", "3", "3", "--of", "U"], "BadParameter"),
        ]
        for argv, expected in cases:
            code, out = invoke(capsys, *argv)
            assert code == 2, argv
            assert json.loads(out)["error"] == expected

    def test_every_subcommand_emits_valid_json(self, capsys, tmp_path):
        period = tmp_path / "p.json"
        period.write_text(
            json.dumps(
                {
                    "lattice": lattice_to_json(standard("U")) | {
                        "gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
                    },
                    "D": -1,
                    "re": ["1", "1", "0", "0"],
                    "im": ["0", "0", "1", "1"],
                }
            )
        )
        gens = tmp_path / "g.json"
        gens.write_text(json.dumps({"ell": 3, "generators": [[[1, 1], [0, 1]]]}))
        commands = [
            ["info", "U"],
            ["discform", "Lambda2d(2)"],
            ["nikulin", "Lambda2d(1)", "2,26"],
            ["iota2d", "1"],
            ["overlattices", "gen(6) + gen(-6)"],
            ["binary-enum", "12", "pos"],
            ["period-split", str(period)],
            ["minkowski", "3"],
            ["fixed-mod-ell", str(gens)],
            ["points", "special_linear", "2", "3"],
        ]
        for argv in commands:
            code, out = invoke(capsys, "--json", *argv)
            assert code == 0, argv
            json.loads(out)  # must be a complete JSON document


def _one_error_line(code, out, error):
    assert code == 2
    assert out.count("\n") == 1
    data = json.loads(out)
    assert set(data) == {"error", "detail"} and data["error"] == error


class TestExactJsonNumbers:
    """Integers must be JSON integers and rationals JSON integers or exact
    strings: a float, a numeric string, true or false, or a non-list is
    refused, never truncated or read another way."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"ell": 5.9, "dim": 2, "generators": []},
            {"ell": 5, "dim": 2.5, "generators": []},
            {"ell": "7", "dim": 2, "generators": []},
            {"ell": 5, "dim": "2", "generators": []},
            {"ell": 5.0, "generators": [[[1]]]},
            {"ell": 5, "dim": True, "generators": []},
            {"ell": 5, "generators": [[[True]]]},
        ],
        ids=["ell-float", "dim-float", "ell-string", "dim-string", "ell-integral-float", "dim-bool",
             "generator-bool"],
    )
    def test_fixed_mod_ell(self, capsys, tmp_path, payload):
        f = tmp_path / "gens.json"
        f.write_text(json.dumps(payload))
        _one_error_line(*invoke(capsys, "--json", "fixed-mod-ell", str(f)), "BadParameter")

    @pytest.mark.parametrize(
        "change",
        [
            {"D": -1.7},
            {"D": -1.0},
            {"D": "-1"},
            {"re": "1100"},
            {"re": [0.1, 1, 0, 0]},
            {"im": [0, 0, 1.0, 1]},
            {"lattice": UU_PERIOD["lattice"] | {"label": 5}},
            {"lattice": UU_PERIOD["lattice"] | {"label": ["x"]}},
            {"re": [True, 1, 0, 0]},
            {"im": [0, 0, 1, True]},
            {"lattice": {"gram": [[0, True, 0, 0], [True, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]}},
        ],
        ids=["D-float", "D-integral-float", "D-string", "re-string", "re-float", "im-float",
             "label-int", "label-list", "re-bool", "im-bool", "gram-bool"],
    )
    def test_period_split(self, capsys, tmp_path, change):
        f = tmp_path / "period.json"
        f.write_text(json.dumps(UU_PERIOD | change))
        _one_error_line(*invoke(capsys, "--json", "period-split", str(f)), "BadParameter")

    def test_period_split_integers_and_strings_agree(self, capsys, tmp_path):
        f = tmp_path / "period.json"
        f.write_text(json.dumps(UU_PERIOD))
        expected = invoke(capsys, "--json", "period-split", str(f))
        f.write_text(json.dumps(UU_PERIOD | {"re": [1, 1, 0, 0], "im": [0, 0, "1", "2/2"]}))
        assert invoke(capsys, "--json", "period-split", str(f)) == expected

    @pytest.mark.parametrize(
        "payload",
        [
            {"ambient": {"gram": [[0, True], [True, 0]]}, "basis": [[1, 0]]},
            {"ambient": {"gram": [[0, 1], [1, 0]]}, "basis": [[True, 0]]},
        ],
        ids=["gram-bool", "basis-bool"],
    )
    def test_complement_booleans(self, capsys, monkeypatch, payload):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        _one_error_line(*invoke(capsys, "--json", "complement"), "BadParameter")

    @pytest.mark.parametrize("label", [5, ["x"], {"a": 1}])
    def test_complement_label(self, capsys, monkeypatch, label):
        payload = {"ambient": {"label": label, "gram": [[0, 1], [1, 0]]}, "basis": [[1, 0]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        _one_error_line(*invoke(capsys, "--json", "complement"), "BadParameter")

    def test_complement_string_label_is_echoed(self, capsys, monkeypatch):
        payload = {"ambient": {"label": "U", "gram": [[0, 1], [1, 0]]}, "basis": [[1, 0]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, data = invoke_json(capsys, "complement")
        assert code == 0 and data["ambient"]["label"] == "U"


class TestFixedModEllDimBound:
    """dim is checked before any generator or identity matrix is built."""

    @pytest.mark.parametrize(
        "dim, error", [(-3, "BadParameter"), (-1, "BadParameter"), (1001, "TooLarge"), (10**9, "TooLarge")]
    )
    def test_refused_quickly(self, capsys, tmp_path, dim, error):
        f = tmp_path / "gens.json"
        f.write_text(json.dumps({"ell": 5, "dim": dim, "generators": []}))
        start = time.perf_counter()
        code, out = invoke(capsys, "--json", "fixed-mod-ell", str(f))
        assert time.perf_counter() - start < 0.5
        _one_error_line(code, out, error)

    def test_generator_rows_must_match_dim(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        f.write_text(json.dumps({"ell": 5, "dim": 2, "generators": [[[1, 0], [0, 1]], [[1, 0], [0, 1], [1, 1]]]}))
        _one_error_line(*invoke(capsys, "--json", "fixed-mod-ell", str(f)), "BadParameter")

    def test_dim_zero_is_valid(self, capsys, tmp_path):
        f = tmp_path / "gens.json"
        f.write_text(json.dumps({"ell": 5, "dim": 0, "generators": [[]]}))
        assert invoke(capsys, "--json", "fixed-mod-ell", str(f)) == (
            0, '{"ell": 5, "dim": 0, "fixed_dimension": 0, "basis": []}\n'
        )


# ---------------------------------------------------------------------------
# fuzz: every subcommand, exit code 0, 1 or 2, errors one {error, detail} line
# ---------------------------------------------------------------------------

_ATOMS = st.one_of(
    st.sampled_from([1, -1, 2, 3, -2]).map(lambda s: ("U" if s == 1 else f"U({s})", 2, s * s)),
    st.sampled_from([1, -1, 2]).map(lambda s: ("E8" if s == 1 else f"E8({s})", 8, abs(s) ** 8)),
    st.tuples(st.integers(1, 8), st.sampled_from([1, -1, 2])).map(
        lambda t: (f"An({t[0]})" if t[1] == 1 else f"An({t[0]},{t[1]})", t[0], (t[0] + 1) * abs(t[1]) ** t[0])
    ),
    st.integers(-12, 12).map(lambda k: (f"gen({k})", 1, max(abs(k), 1))),
)


@st.composite
def lattice_exprs(draw, max_order=10**3):
    """Expression text of rank at most 8 whose discriminant group has at
    most max_order elements (gen(0) included: a degenerate lattice)."""
    terms, rank, order = [], 0, 1
    for _ in range(draw(st.integers(1, 4))):
        text, r, o = draw(_ATOMS)
        power = draw(st.integers(1, 3))
        if rank + r * power > 8 or order * o**power > max_order:
            continue
        terms.append(text if power == 1 else f"{text}^{power}")
        rank, order = rank + r * power, order * o**power
    if not terms:
        return "U"
    text = draw(st.sampled_from([" + ", "+", "⊕"])).join(terms)
    return f"({text})" if draw(st.booleans()) else text


@st.composite
def mangled_exprs(draw, max_order=10**3):
    """A valid expression with one character deleted or inserted."""
    text = draw(lattice_exprs(max_order))
    i = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:i] + text[i + 1 :]
    return text[:i] + draw(st.sampled_from("()^+,-9x ⊕")) + text[i:]


_EXPRS = st.one_of(lattice_exprs(), mangled_exprs(), st.sampled_from(["", "Foo", "Lambda2d(3)", "U^0", "gen(0)"]))

_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-6, 6) | st.floats() | st.text("0123456789/-.x", max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text("abgl", max_size=2), children, max_size=3),
    max_leaves=12,
)


def _int_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


_GRAMS = st.sampled_from(
    [[[0, 1], [1, 0]], [[2, -1], [-1, 2]], [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [[2]], [[0]]]
)


def _payload(fields, valid):
    """A valid payload, as it is or with one value replaced by a tree; an
    object of near-valid values, trees and dropped keys; or a tree."""
    with_tree = st.sampled_from(valid).flatmap(
        lambda payload: st.sampled_from(sorted(payload)).flatmap(lambda key: _TREES.map(lambda t: payload | {key: t}))
    )
    near_valid = st.fixed_dictionaries({}, optional={key: value | _TREES for key, value in fields.items()})
    return st.one_of(st.sampled_from(valid), with_tree, near_valid, _TREES)


_LATTICE_JSON = _payload({"gram": _GRAMS, "label": st.text(max_size=3)}, [{"gram": [[0, 1], [1, 0]], "label": "U"}])
_RATIONALS = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(-3, 3) | st.sampled_from(["1", "-2/3", "0", "1/0", "1.5", "x"]) | st.floats(),
                       min_size=n, max_size=n)
)
_COMPLEMENT_JSON = _payload(
    {"ambient": _LATTICE_JSON, "basis": st.integers(0, 3).flatmap(lambda r: _int_matrices(r, 4))},
    [{"ambient": {"gram": UU_PERIOD["lattice"]["gram"]}, "basis": [[1, 0, 0, 0], [0, 0, 1, 2]]}],
)
_PERIOD_JSON = _payload(
    {"lattice": _LATTICE_JSON, "D": st.sampled_from([-1, -2, -3, -4, 0, 3]), "re": _RATIONALS, "im": _RATIONALS},
    [UU_PERIOD, UU_PERIOD | {"re": [1, 1, 0, 0], "im": [0, 0, 1, 1]}],
)
_GENERATORS_JSON = _payload(
    {
        "ell": st.sampled_from([2, 3, 5, 4, 1, 0, -3, 10**24 + 7, 10**400 + 1]),
        "dim": st.integers(-3, 5) | st.sampled_from([1001, 10**9]),
        "generators": st.integers(0, 4).flatmap(lambda n: st.lists(_int_matrices(n, n), max_size=3)),
    },
    [{"ell": 5, "generators": [[[0, 1], [1, 0]]]}, {"ell": 3, "dim": 2, "generators": []}],
)


def _small_scan(nl):
    # the scan cap refuses ell^(n²) > 10^8 at once; keep the scans it allows small
    n, ell = nl
    return n < 1 or ell < 2 or not 2 * 10**4 < ell ** (n * n) <= 10**8


_REQUESTS = st.one_of(
    st.tuples(st.sampled_from(["info", "discform"]), _EXPRS).map(list),
    st.tuples(st.just("nikulin"), _EXPRS, st.sampled_from(["2,26", "2,19", "1,1", "2", "a,b", "-1,3", "0,0"])).map(list),
    # glue enumeration on U(2)^4 (|A| = 256) takes seconds: keep |A| <= 128
    st.tuples(st.just("overlattices"), lattice_exprs(max_order=128) | mangled_exprs(max_order=128)).map(list),
    st.tuples(st.just("iota2d"), st.integers(-5, 10**6).map(str) | st.just("x")).map(list),
    st.tuples(st.just("binary-enum"), st.integers(-20, 20000).map(str),
              st.sampled_from(["pos", "neg", "+1", "-1", "sideways"])).map(list),
    st.tuples(st.just("minkowski"), st.integers(-5, 1200).map(str) | st.just("x")).map(list),
    st.tuples(st.just("points"), st.sampled_from(["special_linear", "symplectic", "orthogonal", "unitary"]),
              st.tuples(st.integers(-1, 6), st.sampled_from([2, 3, 5, 7]) | st.integers(-2, 40)).filter(_small_scan),
              st.none() | lattice_exprs()).map(
        lambda t: ["points", t[1], str(t[2][0]), str(t[2][1])] + ([] if t[3] is None else ["--of", t[3]])
    ),
    st.tuples(st.just("complement"), _COMPLEMENT_JSON),
    st.tuples(st.just("period-split"), _PERIOD_JSON),
    st.tuples(st.just("fixed-mod-ell"), _GENERATORS_JSON),
    st.lists(st.sampled_from(["info", "points", "--json", "--of", "U", "2", "x"]), max_size=4),
)


class TestFuzzEverySubcommand:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(_REQUESTS, st.booleans())
    def test_exit_code_and_one_error_line(self, capsys, tmp_path, request_, as_json):
        argv, stdin = list(request_), ""
        if argv[:1] == ["complement"]:
            stdin = json.dumps(argv.pop())
        elif argv[:1] in (["period-split"], ["fixed-mod-ell"]):
            path = tmp_path / "payload.json"
            path.write_text(json.dumps(argv.pop()))
            argv.append(str(path))
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            code, out = invoke(capsys, *(["--json"] if as_json else []), *argv)
        finally:
            sys.stdin = saved
        assert code in (0, 1, 2)
        if code:
            assert out.count("\n") == 1
            data = json.loads(out)
            assert set(data) == {"error", "detail"}
            assert (code == 1) == (data["error"] == "UsageError")
        elif as_json:
            assert out.count("\n") == 1
            json.loads(out)
