"""quadlat benchmark: closed-loop workloads timed end to end, and a traced
run that splits the time and work by module.

    python3 perfbench/run.py --workload k3-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports quadlat from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the machine and the run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import tracer
from facts import Mismatch
from speed import REFERENCE_MS, Speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MODULES = ("linalg", "lattice", "embeddings", "glue", "periods", "brauer", "expr", "cli")
SETUP_REPEATS = 7


def load_program() -> SimpleNamespace:
    """Import quadlat afresh, so that each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "quadlat" or n.startswith("quadlat.")]:
        del sys.modules[name]
    importlib.import_module("quadlat")
    return SimpleNamespace(**{m: importlib.import_module(f"quadlat.{m}") for m in MODULES})


def machine(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadlat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Outcomes:
    """Per-op outcomes: ok, failed (raised instead of answering) or wrong."""

    def __init__(self):
        self.counts = Counter()
        self.examples: dict[str, str] = {}

    def record(self, op, answer, error) -> None:
        if error is not None:
            self._add("failed", f"{op.kind}: {type(error).__name__}: {error}")
            return
        try:
            op.check(answer)
        except Mismatch as exc:
            self._add("wrong", f"{op.kind}: {exc}")
        except Exception as exc:  # a malformed answer (missing field, not JSON) is wrong too
            self._add("wrong", f"{op.kind}: malformed answer: {type(exc).__name__}: {exc}")
        else:
            self.counts["ok"] += 1

    def _add(self, kind: str, text: str) -> None:
        self.counts[kind] += 1
        self.examples.setdefault(text, kind)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.counts["failed"] + self.counts["wrong"]


def timed(op, program, run=None, clock=time.perf_counter):
    start = clock()
    try:
        answer, error = (run or op.run)(program), None
    except Exception as exc:  # a crash is the op's outcome, counted as failed
        answer, error = None, exc
    return clock() - start, answer, error


def set_up(workload, seed: int, workdir: Path, clock=time.perf_counter):
    """Import, input generation and warm-up; returns the program, the inputs
    and the seconds it took.  A warm-up answer that fails its check ends the run."""
    start = clock()
    program = load_program()
    state = workload.prepare(seed, workdir)
    warm = [(op, *timed(op, program)[1:]) for op in workload.warmup(state)]
    seconds = clock() - start
    checked = Outcomes()
    for op, answer, error in warm:
        checked.record(op, answer, error)
    if checked.failed:
        raise SystemExit(f"warm-up failed: {checked.examples}")
    return program, state, seconds


def timings(samples: list[float], setups: list[float]) -> dict:
    """The timing metrics of a run, from its op times and set-up times."""
    samples = sorted(samples)
    n = len(samples)
    tail_rank = max(n - 11, 0)  # ten samples beyond it, when there are that many
    return {
        "throughput_ops": (n / sum(samples), "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_tail_ms": (samples[tail_rank] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def measure(workload, seed: int, seconds: float, workdir: Path):
    """Whole rounds until the measured op time reaches ``seconds``.  The
    set-ups are spread over the run, and each later round runs on the
    program the last set-up imported.  Every op and set-up is timed on the
    clock of a ``Speed``, which leaves its readings out, and its time is
    scaled to the reference speed of ``speed.py``; the unscaled metrics go
    to the notes."""
    setups = []  # (seconds, start, end) on the clock of ``speed``
    samples = []
    outcomes = Outcomes()
    measured = 0.0
    with Speed() as speed:

        def fresh_set_up():
            start = speed.now()
            program, state, setup = set_up(workload, seed, workdir, speed.now)
            setups.append((setup, start, start + setup))
            return program, state

        program, state = fresh_set_up()
        for round_ops in workload.rounds(state):
            for op in round_ops:
                start = speed.now()
                dt, answer, error = timed(op, program, clock=speed.now)
                samples.append((dt, start, start + dt))
                measured += dt
                outcomes.record(op, answer, error)
                del answer
            if measured >= seconds:
                break
            if measured >= len(setups) * seconds / SETUP_REPEATS:
                program, _ = fresh_set_up()
        while len(setups) < SETUP_REPEATS:
            fresh_set_up()
    metrics = timings([speed.scale(*s) for s in samples], [speed.scale(*s) for s in setups])
    metrics["ok_ratio"] = (1 - outcomes.failed / outcomes.attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    n = len(samples)
    tail_rank = max(n - 11, 0)
    readings_ms = [r * 1e3 for r in speed.readings]
    notes = {
        "ops": n,
        "measured_s": measured,
        "tail_percentile": 100 * (tail_rank + 1) / n,
        "tail_samples_beyond": n - 1 - tail_rank,
        "failed_ratio": outcomes.failed / outcomes.attempted,
        "unscaled": {k: v for k, (v, _) in timings([s[0] for s in samples], [s[0] for s in setups]).items()},
        "speed_ms": {"reference": REFERENCE_MS, "readings": len(readings_ms), "median": statistics.median(readings_ms),
                     "min": min(readings_ms), "max": max(readings_ms), "spent_s": speed.spent},
    }
    return outcomes, metrics, notes


def trace(workload, seed: int, workdir: Path, spans_path: Path):
    """Run each traced op twice, once plain and once under the tracer, in
    alternating order.  The work counts come from the traced copies; the
    overhead is the median over ops of traced time over plain time, minus 1."""
    program, state, _ = set_up(workload, seed, workdir)
    ops = workload.trace_ops(state)
    outcomes = Outcomes()
    recorder = tracer.Tracer(program)
    plain, traced = [], []
    for i, op in enumerate(ops):
        for under_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not under_trace:
                dt, answer, error = timed(op, program)
                plain.append(dt)
            else:
                recorder.install()
                try:
                    dt, answer, error = timed(op, program, lambda p: recorder.run_op(i, op.run, p))
                finally:
                    recorder.uninstall()
                traced.append(dt)
                if "cli:" in op.kind:
                    recorder.counts["cli.input_bytes"] += op.input_bytes
                    if error is None:
                        recorder.counts["cli.stdout_bytes"] += len(answer[1].encode())
            outcomes.record(op, answer, error)
            del answer
    layer = recorder.layer_metrics(len(ops))
    layer["trace.overhead_frac"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(recorder.dump()))
    metrics = {name: (value, tracer.unit(name)) for name, value in layer.items()}
    notes = {"ops": len(ops), "spans": len(recorder.spans), "plain_s": sum(plain), "traced_s": sum(traced),
             "missing_targets": sorted(set(recorder.missing)), "spans_file": str(spans_path)}
    return outcomes, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("run without -O: the program's own assert checks are part of what is measured", file=sys.stderr)
        return 2
    if not (SRC / "quadlat" / "__init__.py").is_file():
        print(f"no quadlat sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"inputs-{tag}-{os.getpid()}"
    try:
        if args.trace:
            outcomes, metrics, notes = trace(workload, args.seed, workdir, OUT / f"spans-{tag}.json")
        else:
            outcomes, metrics, notes = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(args.seed),
        "notes": notes,
        "outcomes": dict(outcomes.counts),
        "failures": outcomes.examples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print("# machine " + json.dumps(record["machine"]))
    print("# notes " + json.dumps(notes))
    if outcomes.examples:
        print("# failures " + json.dumps(outcomes.examples))
    print(json.dumps({
        "correct": outcomes.counts["wrong"] == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
