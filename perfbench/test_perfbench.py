"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench

Tiny runs of every workload, traced and untraced, must pass every check;
spans must nest with non-negative self times; the wrappers must be gone
after a traced run; work counts must repeat for a seed; the pinned ladder
counts must agree with the all-subgroup oracle of tests/test_glue.py.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import facts  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LADDER = workloads.GLUE_LADDER
WRAPPER = "Tracer._wrap.<locals>.wrapper"


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, which the benchmark may write."""
    path = run.OUT / "test" / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload, and give quadlat's modules back afterwards,
    since the benchmark re-imports them."""
    saved = {n: m for n, m in sys.modules.items() if n == "quadlat" or n.startswith("quadlat.")}
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "K3_TRACE_OPS", 2)
    monkeypatch.setattr(workloads, "CLI_TRACE_CYCLES", 1)
    monkeypatch.setattr(workloads, "GLUE_LADDER", workloads.GLUE_LADDER[:2])
    monkeypatch.setattr(workloads, "RANDOM_PER_ROUND", 4)
    monkeypatch.setattr(workloads, "E8_NORMS", ((-2, 1), (-4, 1)))
    yield
    for name in [n for n in sys.modules if n == "quadlat" or n.startswith("quadlat.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def assert_only_known_failures(outcomes):
    assert outcomes.counts["wrong"] == 0, outcomes.examples
    for text in outcomes.examples:
        assert text.startswith(workloads.BAD_INPUT_PREFIX), text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_passes_checks_and_reports_every_metric(name, work):
    outcomes, metrics, notes = run.measure(workloads.WORKLOADS[name], 3, 0.01, work / "in")
    assert outcomes.attempted >= 1
    assert_only_known_failures(outcomes)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in metrics.items()} == spec
    assert all(v > 0 for v, _ in metrics.values())
    assert notes["ops"] == outcomes.attempted
    assert notes["unscaled"].keys() == {"throughput_ops", "op_p50_ms", "op_tail_ms", "setup_s"}


def test_scaling_uses_the_readings_during_and_around_an_interval(work):
    host = speed.Speed()
    host.times = [1.0, 2.0, 3.0, 4.0, 5.0]
    host.readings = [0.001, 0.002, 0.003, 0.004, 0.005]
    ref = speed.REFERENCE_MS * 1e-3
    assert host.scale(0.3, 2.5, 2.6) == pytest.approx(0.3 * ref / 0.0025)
    assert host.scale(0.3, 1.5, 3.5) == pytest.approx(0.3 * ref / 0.0025)
    assert host.scale(0.3, 4.5, 4.6) == pytest.approx(0.3 * ref / 0.0045)

    run.measure(workloads.WORKLOADS["cli-mix"], 3, 0.01, work / "in")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def traced(name, seed, work):
    spans = work / f"spans-{name}-{seed}.json"
    outcomes, metrics, notes = run.trace(workloads.WORKLOADS[name], seed, work / "in", spans)
    return outcomes, metrics, notes, json.loads(spans.read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_nests_spans_and_removes_wrappers(name, work):
    outcomes, metrics, notes, dump = traced(name, 5, work)
    assert_only_known_failures(outcomes)
    assert notes["missing_targets"] == []
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == spec

    spans = dump["spans"]
    assert spans
    for name_id, start, end, parent, op in spans:
        assert start <= end
        if parent < 0:
            assert dump["names"][name_id] == tracer.ROOT
        else:
            p = spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == op
    t = tracer.Tracer.__new__(tracer.Tracer)
    t.spans = [tuple(s) for s in spans]
    assert min(t.self_times()) >= 0
    assert all(metrics[f"{n}.self_ms"][0] >= 0 for n in tracer.span_names())

    for mod_name in ["quadlat"] + [f"quadlat.{m}" for m in run.MODULES]:
        for value in vars(sys.modules[mod_name]).values():
            assert getattr(value, "__qualname__", "") != WRAPPER
    linalg, lattice = sys.modules["quadlat.linalg"], sys.modules["quadlat.lattice"]
    assert vars(linalg.IntMatrix)["__matmul__"].__qualname__ == "IntMatrix.__matmul__"
    assert vars(lattice.Lattice)["__post_init__"].__qualname__ == "Lattice.__post_init__"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_for_a_seed(name, work):
    first = traced(name, 11, work / "a")[1]
    second = traced(name, 11, work / "b")[1]
    counted = [k for k in first if k.endswith(".calls") or k in tracer.WORK_COUNTS]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_ladder_counts_match_the_all_subgroup_oracle():
    sys.path.insert(0, str(ROOT / "tests"))
    from test_glue import brute_force_even_overlattices
    from quadlat.lattice import make_lattice

    # U(2)^3 (171 subgroups) takes the oracle about 90 s, so only the two
    # smaller rungs run here
    for label, gram, count, _ in LADDER[:2]:
        assert len(brute_force_even_overlattices(make_lattice(gram))) == count, label


def test_checks_reject_wrong_answers():
    hist = facts.cyclic_q_histogram(-14)
    with pytest.raises(facts.Mismatch):
        workloads._discform_check([14], hist)({"invariant_factors": [14], "q": ["1/14"], "b": [["13/14"]]})
    workloads._discform_check([14], hist)({"invariant_factors": [14], "q": ["27/14"], "b": [["13/14"]]})
    # 3·g is another generator of Z/14: q = 9·(27/14) mod 2, b = 9·(13/14) mod 1
    workloads._discform_check([14], hist)({"invariant_factors": [14], "q": ["19/14"], "b": [["5/14"]]})
    u2 = facts.scaled_u(2)
    with pytest.raises(facts.Mismatch):  # the trivial subgroup listed twice
        facts.check_glue(u2, [[[0, 0]], [[0, 0]]], [u2, u2])


def test_refuses_to_run_outside_a_checkout(work):
    (work / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, work / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "k3-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
