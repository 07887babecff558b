import io
import json
import sys
import time
from collections import Counter

import pytest

from quadlat import periods
from quadlat.cli import run
from quadlat.lattice import standard, lattice_to_json


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


class TestFixedModEll:
    def test_swap_generators(self, capsys, tmp_path):
        payload = {"ell": 5, "generators": [[[0, 1], [1, 0]]]}
        f = tmp_path / "gens.json"
        f.write_text(json.dumps(payload))
        code, data = invoke_json(capsys, "fixed-mod-ell", str(f))
        assert code == 0
        assert data["fixed_dimension"] == 1
        assert data["basis"] == [[1, 1]]


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

    def test_domain_errors_exit_two(self, capsys):
        cases = [
            (["info", "E8(-1)^"], "ParseError"),
            (["info", "Foo"], "UnknownAtom"),
            (["info", "gen(0)"], "BadParameter"),
            (["info", "U^0"], "BadParameter"),
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
