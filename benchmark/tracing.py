"""Per-module spans around the public functions the denoise pipeline calls.

The wrappers are installed from outside the package. Each one replaces a
name in the module that calls it (`gtvdenoise.solver.build_knn_graph`, not
`gtvdenoise.graph.build_knn_graph`), so only calls made along the pipeline
are seen. A name that no longer exists is skipped: its metrics are absent
from the report, never zero.

A span's self time is its duration minus the durations of its direct
child spans, so `solver.admm_self_s` is ADMM minus operator assembly and
the p-updates, and `solver.denoise_self_s` is `denoise` minus graph,
bipartition, normals and ADMM (it includes window bucketing).
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import checks


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bipartite_counts(args, result) -> dict:
    return {"nodes": args[0].node_count}


def _normals_counts(args, result) -> dict:
    assignment, opt_class = args[2], args[3]
    return {
        "nodes": int(np.count_nonzero(np.asarray(assignment) == opt_class)),
        "skipped": len(result[1]),
    }


def _p_update_counts(args, result) -> dict:
    return {"cg_iterations": result[1].iterations}


# (module, attribute, span name, counts(positional args, result) -> dict)
TARGETS = (
    ("gtvdenoise.cli", "load_cloud", "cloud.load", None),
    ("gtvdenoise.cli", "save_cloud", "cloud.save", None),
    ("gtvdenoise.cli", "denoise", "solver.denoise", None),
    ("gtvdenoise.solver", "build_knn_graph", "graph.knn", None),
    ("gtvdenoise.solver", "approximate_bipartite", "bipartite", _bipartite_counts),
    ("gtvdenoise.solver", "estimate_normal_field", "normals", _normals_counts),
    ("gtvdenoise.solver", "admm_denoise_partite", "solver.admm", None),
    ("gtvdenoise.solver", "assemble_edge_operator", "solver.assemble", None),
    ("gtvdenoise.solver", "p_update", "solver.p_update", _p_update_counts),
)

# The span the benchmark opens around one whole `gtvdenoise denoise` command.
COMMAND_SPAN = "cli"

# per-layer metric -> unit
LAYER_UNITS = {
    "graph.knn_s": "s",
    "graph.knn_calls": "count",
    "bipartite.s": "s",
    "bipartite.nodes": "count",
    "normals.s": "s",
    "normals.nodes": "count",
    "normals.skipped": "count",
    "solver.assemble_s": "s",
    "solver.p_update_s": "s",
    "solver.p_update_calls": "count",
    "solver.cg_iterations": "count",
    "solver.admm_self_s": "s",
    "solver.admm_iterations": "count",
    "solver.passes": "count",
    "solver.passes_at_cap": "count",
    "solver.windows": "count",
    "solver.window_redundancy": "ratio",
    "solver.denoise_self_s": "s",
    "cloud.load_s": "s",
    "cloud.save_s": "s",
    "cli.self_s": "s",
    "cli.s": "s",
}


class Tracer:
    """Install wrappers with `with tracer:`; spans accumulate in `spans`."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.installed = {COMMAND_SPAN}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name, counts in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, counts))
            self.installed.add(span_name)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                try:
                    record.counts.update(counts(args, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the count is then absent for this span name
            return result

        return wrapper


def span_metrics(spans: list[Span], installed: set[str]) -> dict[str, float]:
    """Per-layer times and counts of one command's spans."""
    total: dict[str, float] = {name: 0.0 for name in installed}
    self_time = dict(total)
    calls = {name: 0 for name in installed}
    count_sums: dict[tuple[str, str], int] = {}
    count_spans: dict[tuple[str, str], int] = {}
    for span in spans:
        total[span.name] += span.seconds
        self_time[span.name] += span.seconds
        calls[span.name] += 1
        if span.parent is not None:
            self_time[spans[span.parent].name] -= span.seconds
        for key, value in span.counts.items():
            count_sums[span.name, key] = count_sums.get((span.name, key), 0) + value
            count_spans[span.name, key] = count_spans.get((span.name, key), 0) + 1

    def count(name, key):
        # absent unless every span of the name reported the count
        if count_spans.get((name, key), -1) == calls.get(name):
            return count_sums[name, key]
        return None

    wanted = {
        "graph.knn_s": total.get("graph.knn"),
        "graph.knn_calls": calls.get("graph.knn"),
        "bipartite.s": total.get("bipartite"),
        "bipartite.nodes": count("bipartite", "nodes"),
        "normals.s": total.get("normals"),
        "normals.nodes": count("normals", "nodes"),
        "normals.skipped": count("normals", "skipped"),
        "solver.assemble_s": total.get("solver.assemble"),
        "solver.p_update_s": total.get("solver.p_update"),
        "solver.p_update_calls": calls.get("solver.p_update"),
        "solver.cg_iterations": count("solver.p_update", "cg_iterations"),
        "solver.admm_self_s": self_time.get("solver.admm"),
        "solver.denoise_self_s": self_time.get("solver.denoise"),
        "cloud.load_s": total.get("cloud.load"),
        "cloud.save_s": total.get("cloud.save"),
        "cli.self_s": self_time.get(COMMAND_SPAN),
        "cli.s": total.get(COMMAND_SPAN),
    }
    return {key: value for key, value in wanted.items() if value is not None}


def diag_metrics(diag_path: str, admm_max_iter: int) -> dict[str, float]:
    """Iteration, pass and window counts read from the command's .diag file.

    Empty (the metrics absent) when the file cannot be read as expected.
    """
    try:
        meta, rows = checks.read_diag_rows(diag_path)
    except (OSError, ValueError):
        return {}
    finals = checks.final_rows(rows)
    return {
        "solver.admm_iterations": len(rows),
        "solver.passes": len(finals),
        "solver.passes_at_cap": sum(it >= admm_max_iter for it, _ in finals.values()),
        # the direct path solves the whole cloud as one window
        "solver.windows": int(meta.get("windows", 1)),
    }
