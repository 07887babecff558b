"""Spans and work counts for the traced run, recorded from outside quadlat.

``Tracer.install`` puts a wrapper around each public function listed in
``TARGETS``, in every quadlat module that holds it by name, and around
``IntMatrix.__matmul__`` and ``Lattice.__post_init__`` on their classes;
``uninstall`` puts the originals back.  A wrapper records a span (name,
start, end, parent, op id) only while ``run_op`` runs an op, so checks
and set-up leave no spans.  Spans stay in memory.  Work counts are
computed after the run from references the wrappers keep to arguments
and results, so counting costs nothing inside the timed calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

TARGETS = {
    "linalg": ("smith_normal_form", "hermite_normal_form", "det_exact", "solve_rational", "kernel_basis"),
    "lattice": ("signature", "discriminant_group", "discriminant_form", "disc_form_isomorphic"),
    "embeddings": (
        "build_iota2d", "orthogonal_complement", "saturate", "is_primitive", "nikulin_check",
        "extend_isometry", "find_primitive_vector", "count_norm_vectors",
    ),
    "glue": ("isotropic_subgroups", "overlattice_from_glue", "subgroup_elements", "enumerate_even_binary"),
    "periods": ("validate_period", "transcendental", "minimal_hodge_sublattice"),
    "brauer": ("brute_force_points", "fixed_subspace_mod_ell", "minkowski_bound"),
    "expr": ("evaluate_expr",),
    "cli": ("run",),
}
# (module, class, method, span name)
METHOD_TARGETS = (
    ("linalg", "IntMatrix", "__matmul__", "linalg.matmul"),
    ("lattice", "Lattice", "__post_init__", "lattice.Lattice"),
)

# what each wrapper keeps for the work counts: f(args, result)
_KEEP = {
    "linalg.matmul": lambda args, result: (args[0], args[1]),
    "linalg.solve_rational": lambda args, result: args[0].nrows,
    "lattice.disc_form_isomorphic": lambda args, result: args[0],
    "glue.isotropic_subgroups": lambda args, result: (args[0], len(result)),
    "embeddings.count_norm_vectors": lambda args, result: result,
}

WORK_COUNTS = (
    "linalg.matmul.madds",
    "linalg.matmul.zero_share",
    "linalg.solve_rational.max_dim",
    "lattice.disc_form_isomorphic.order_sum",
    "glue.isotropic_subgroups.order_sum",
    "glue.isotropic_subgroups.subgroups_out",
    "embeddings.count_norm_vectors.vectors_out",
    "cli.stdout_bytes",
    "cli.input_bytes",
)

ROOT = "op"

_UNITS = {"self_ms": "ms", "zero_share": "ratio", "overhead_frac": "ratio", "stdout_bytes": "B", "input_bytes": "B"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return _UNITS.get(metric.rsplit(".", 1)[1], "count")


def span_names() -> list[str]:
    names = [f"{m}.{f}" for m, funcs in TARGETS.items() for f in funcs]
    return names + [name for *_, name in METHOD_TARGETS]


class Tracer:
    def __init__(self, program):
        self.names: list[str] = [ROOT]
        self.spans: list[tuple | None] = []  # (name index, start ns, end ns, parent index, op id)
        self.kept: dict[int, object] = {}
        self.counts: Counter = Counter()  # counts the benchmark adds from outside the program
        self.missing: list[str] = []
        self._stack = [-1]
        self._op: int | None = None
        self._patches = self._plan(program)  # (owner, attribute, original, wrapper)

    # -- installing and removing the wrappers --------------------------------

    def _plan(self, program) -> list[tuple]:
        quadlat_modules = [
            m for name, m in list(sys.modules.items()) if name == "quadlat" or name.startswith("quadlat.")
        ]
        patches = []
        for mod_name, funcs in TARGETS.items():
            home = getattr(program, mod_name, None)
            for fn_name in funcs:
                name = f"{mod_name}.{fn_name}"
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                patches += [
                    (module, fn_name, original, wrapper)
                    for module in quadlat_modules
                    if vars(module).get(fn_name) is original
                ]
        for mod_name, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(getattr(program, mod_name, None), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                self.missing.append(name)
                continue
            patches.append((cls, method, original, self._wrap(name, original)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        keep = _KEEP.get(name)
        spans, stack, kept, clock = self.spans, self._stack, self.kept, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (name_id, start, end, parent, op)
            if keep is not None:
                kept[i] = keep(args, result)
            return result

        return wrapper

    # -- running one op under a root span ------------------------------------

    def run_op(self, op_id: int, fn, *args):
        i = len(self.spans)
        self.spans.append(None)
        self._stack.append(i)
        self._op = op_id
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._op = None
            self._stack.pop()
            self.spans[i] = (0, start, end, -1, op_id)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover (ns)."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def work_counts(self) -> dict[str, float]:
        out = Counter({name: 0 for name in WORK_COUNTS})
        zero_products = 0
        for i, value in self.kept.items():
            name = self.names[self.spans[i][0]]
            if name == "linalg.matmul":
                a, b = value
                products = a.nrows * a.ncols * b.ncols
                nonzero = sum(
                    sum(1 for row in a if row[k]) * sum(1 for x in b[k] if x) for k in range(a.ncols)
                )
                out["linalg.matmul.madds"] += products
                zero_products += products - nonzero
            elif name == "linalg.solve_rational":
                out["linalg.solve_rational.max_dim"] = max(out["linalg.solve_rational.max_dim"], value)
            elif name == "lattice.disc_form_isomorphic":
                out["lattice.disc_form_isomorphic.order_sum"] += value.order
            elif name == "glue.isotropic_subgroups":
                form, produced = value
                out["glue.isotropic_subgroups.order_sum"] += form.order
                out["glue.isotropic_subgroups.subgroups_out"] += produced
            elif name == "embeddings.count_norm_vectors":
                out["embeddings.count_norm_vectors.vectors_out"] += value
        out.update(self.counts)
        madds = out["linalg.matmul.madds"]
        result = dict(out)
        result["linalg.matmul.zero_share"] = zero_products / madds if madds else 0.0
        return result

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """calls and self time per op for every target, plus work counts per op
        (max_dim and zero_share are not sums, so they are not divided)."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for (name_id, *_), own in zip(self.spans, self.self_times()):
            calls[name_id] += 1
            self_ns[name_id] += own
        by_name = {name: i for i, name in enumerate(self.names)}
        out = {}
        for name in span_names():  # a target missing from the program reports 0
            i = by_name.get(name)
            out[f"{name}.calls"] = calls[i] / n_ops
            out[f"{name}.self_ms"] = self_ns[i] / 1e6 / n_ops
        for name, value in self.work_counts().items():
            per_op = name not in ("linalg.solve_rational.max_dim", "linalg.matmul.zero_share")
            out[name] = value / n_ops if per_op else value
        return out

    def dump(self) -> dict:
        t0 = min((s[1] for s in self.spans), default=0)
        return {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [[n, s - t0, e - t0, p, op] for n, s, e, p, op in self.spans],
        }
