"""Spans around resolvekit's public functions, recorded from outside the package.

resolvekit's modules bind each other's functions with `from .x import y`, so
a call goes through the namespace of the calling module. The tracer therefore
rebinds every module-level name, and every module-level dict entry (the
`_VERIFIERS` tables), that holds a traced function, and restores them after.

A span has a name, a start, an end and a parent. Subset search closes about a
million verifier spans per pass, so spans are folded into per-(name, parent)
totals as they close instead of being kept one by one: calls, wall time, and
self time (wall time minus the time of child spans).
"""
from __future__ import annotations

import sys
import time

# span name -> (module, function names)
TRACED = {
    "generators.build": ("generators", ("build_ccc", "build_lcg")),
    "graphs.apsp": ("graphs", ("apsp",)),
    "graphs.io": ("graphs", ("read_graph", "write_graph")),
    "resolving.is_resolving": ("resolving", ("is_resolving",)),
    "resolving.is_doubly_resolving": ("resolving", ("is_doubly_resolving",)),
    "resolving.is_strong_resolving": ("resolving", ("is_strong_resolving",)),
    "resolving.mmd_pairs": ("resolving", ("mmd_pairs",)),
    "resolving.twin_classes": ("resolving", ("twin_classes",)),
    "solvers.search": (
        "solvers",
        ("solve_min_resolving", "solve_min_doubly", "solve_min_strong_direct"),
    ),
    "solvers.vc": ("solvers", ("solve_min_strong_vc",)),
    "witnesses.audit": ("witnesses", ("audit_claim",)),
    "witnesses.witness": ("witnesses", ("ccc_witness", "lcg_witness")),
    "cli.run": ("cli", ("run",)),
}

VERIFIER_SPANS = (
    "resolving.is_resolving",
    "resolving.is_doubly_resolving",
    "resolving.is_strong_resolving",
)

COUNTED_SPANS = ("solvers.search", "solvers.vc", "resolving.mmd_pairs", "graphs.apsp")


def _matrix_bytes(dist) -> int:
    """Bytes held by a distance matrix's row containers. Entries are small
    ints, which CPython shares, so containers are all the matrix allocates;
    on ccc n=4 this equals the tracemalloc peak of apsp to within 0.1%."""
    rows = dist.rows
    return sys.getsizeof(rows) + sum(sys.getsizeof(row) for row in rows)


def _count_result(counters: dict, name: str, result) -> None:
    if name == "solvers.search":
        counters["candidates"] += result.stats.subsets_examined
    elif name == "solvers.vc":
        # SearchStats.subsets_examined holds vertex-cover nodes on this route
        counters["vc_nodes"] += result.stats.subsets_examined
    elif name == "resolving.mmd_pairs":
        counters["mmd_edges"] += len(result.edges)
    elif name == "graphs.apsp":
        counters["apsp_bytes"] = max(counters["apsp_bytes"], _matrix_bytes(result))


class Tracer:
    def __init__(self, package_name: str = "resolvekit"):
        self.package_name = package_name
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters = {"candidates": 0, "vc_nodes": 0, "mmd_edges": 0, "apsp_bytes": 0}
        self._stack: list[list] = []
        self._bound: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for name, (module, functions) in TRACED.items():
            mod = sys.modules[f"{package_name}.{module}"]
            for fn_name in functions:
                fn = getattr(mod, fn_name)
                self._wrappers[id(fn)] = self._wrap(fn, name)

    def reset(self) -> None:
        self.spans.clear()
        for key in self.counters:
            self.counters[key] = 0

    def _wrap(self, fn, name: str):
        stack = self._stack
        spans = self.spans
        counters = self.counters
        clock = time.perf_counter
        counted = name in COUNTED_SPANS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (name, None if parent is None else parent[1])
                if parent is not None:
                    parent[0] += elapsed
                span = spans.get(key)
                if span is None:
                    span = spans[key] = [0, 0.0, 0.0]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[0]
            if counted:
                _count_result(counters, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every module-level name and dict entry that holds a traced
        function, in every loaded module of the package."""
        wrappers = self._wrappers
        prefix = self.package_name + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != self.package_name and not mod_name.startswith(prefix):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._bound.append((namespace, attr, value))
                    namespace[attr] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._bound.append((value, key, entry))
                            value[key] = wrappers[id(entry)]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._bound):
            container[key] = original
        self._bound.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures for the spans recorded since the last reset."""

        def total(name, field):
            return sum(span[field] for (n, _), span in self.spans.items() if n == name)

        def self_s(name):
            return total(name, 2)

        search_s = total("solvers.search", 1)
        candidates = self.counters["candidates"]
        verified = sum(
            span[0]
            for (n, parent), span in self.spans.items()
            if n in VERIFIER_SPANS and parent == "solvers.search"
        )
        return {
            "generators.build_s": self_s("generators.build"),
            "graphs.apsp_s": self_s("graphs.apsp"),
            "graphs.apsp_calls": total("graphs.apsp", 0),
            "graphs.apsp_alloc_mb": self.counters["apsp_bytes"] / 2**20,
            "graphs.io_s": self_s("graphs.io"),
            "resolving.is_resolving_s": self_s("resolving.is_resolving"),
            "resolving.is_resolving_calls": total("resolving.is_resolving", 0),
            "resolving.is_doubly_resolving_s": self_s("resolving.is_doubly_resolving"),
            "resolving.is_doubly_resolving_calls": total("resolving.is_doubly_resolving", 0),
            "resolving.is_strong_resolving_s": self_s("resolving.is_strong_resolving"),
            "resolving.is_strong_resolving_calls": total("resolving.is_strong_resolving", 0),
            "resolving.mmd_pairs_s": self_s("resolving.mmd_pairs"),
            "resolving.mmd_edges": self.counters["mmd_edges"],
            "resolving.twin_classes_s": self_s("resolving.twin_classes"),
            "solvers.search_self_s": self_s("solvers.search"),
            "solvers.candidates": candidates,
            "solvers.candidates_per_s": candidates / search_s if search_s else 0.0,
            "solvers.verified_per_candidate": verified / candidates if candidates else 0.0,
            "solvers.vc_self_s": self_s("solvers.vc"),
            "solvers.vc_nodes": self.counters["vc_nodes"],
            "witnesses.audit_self_s": self_s("witnesses.audit"),
            "witnesses.witness_s": self_s("witnesses.witness"),
            "cli.run_self_s": self_s("cli.run"),
        }
