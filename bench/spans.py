"""Span tracing of colorfil's module boundaries, installed from outside.

The tracer wraps functions by rebinding the name each caller module
imported (``colorfil.cli.block_dims``, ``colorfil.cohomology.kernel_basis``
and so on), so nothing under ``src/`` changes and intra-module calls
such as ``block_dims -> assemble_Z2_system`` are seen too.  Each call
records one span: (id, name, start, end, parent id, operation id).
Spans stay in memory; ``write`` dumps them when the run ends.

Counts about a returned object (matrix shape, rank, kernel dimension,
connected components) are not computed inside the span: the result is
kept and counted after the pass, so counting never adds to a span's
time.
"""

from __future__ import annotations

import functools
import json
import time
from math import comb

import colorfil.cli
import colorfil.cohomology
import colorfil.deformation

# (module, attribute, span name).  The span name says which layer owns
# the function; the module is the caller whose imported name is rebound.
WRAPPED = (
    (colorfil.cli, "run_verify", "cli.run_verify"),
    (colorfil.cli, "main", "cli.main"),
    (colorfil.cli, "build_model", "algebra.build_model"),
    (colorfil.cli, "from_json_dict", "algebra.from_json_dict"),
    (colorfil.cli, "main_theorem_total", "formulas.main_theorem_total"),
    (colorfil.cli, "count_weight_dim", "weights.count_weight_dim"),
    (colorfil.cli, "block_dims", "cohomology.block_dims"),
    (colorfil.cli, "cocycle_basis_json", "cohomology.cocycle_basis_json"),
    (colorfil.cli, "cochain_from_json", "cohomology.cochain_from_json"),
    (colorfil.cli, "deform", "deformation.deform"),
    (colorfil.cli, "is_integrable", "deformation.is_integrable"),
    (colorfil.cli, "filiform_check", "deformation.filiform_check"),
    (colorfil.cohomology, "assemble_Z2_system", "cohomology.assemble_Z2_system"),
    (colorfil.cohomology, "_restrict_to_block", "cohomology.restrict_to_block"),
    (colorfil.cohomology, "rank_certified", "linalg.rank_certified"),
    (colorfil.cohomology, "nullity", "linalg.nullity"),
    (colorfil.cohomology, "kernel_basis", "linalg.kernel_basis"),
    (colorfil.deformation, "is_cocycle", "cohomology.is_cocycle"),
    (colorfil.deformation, "validate_jacobi", "algebra.validate_jacobi"),
)

# Spans whose results are counted after the pass.
COUNTED = {"cohomology.assemble_Z2_system", "linalg.rank_certified",
           "linalg.nullity", "linalg.kernel_basis"}

# per-layer metric -> (span name, "total" or "self")
TIMES = {
    "cli.run_verify.self_s": ("cli.run_verify", "self"),
    "cli.main.self_s": ("cli.main", "self"),
    "formulas.main_theorem_total_s": ("formulas.main_theorem_total", "total"),
    "weights.count_weight_dim_s": ("weights.count_weight_dim", "total"),
    "algebra.build_model_s": ("algebra.build_model", "total"),
    "algebra.validate_jacobi_s": ("algebra.validate_jacobi", "total"),
    "algebra.from_json_dict_s": ("algebra.from_json_dict", "total"),
    "cohomology.assemble_s": ("cohomology.assemble_Z2_system", "total"),
    "cohomology.restrict_s": ("cohomology.restrict_to_block", "total"),
    "cohomology.is_cocycle_s": ("cohomology.is_cocycle", "total"),
    "cohomology.block_dims.self_s": ("cohomology.block_dims", "self"),
    "cohomology.cocycle_basis_json.self_s": ("cohomology.cocycle_basis_json", "self"),
    "linalg.block_rank_s": ("linalg.rank_certified", "total"),
    "linalg.joint_rank_s": ("linalg.nullity", "total"),
    "linalg.kernel_basis_s": ("linalg.kernel_basis", "total"),
    "deformation.is_integrable.self_s": ("deformation.is_integrable", "self"),
    "deformation.filiform_check_s": ("deformation.filiform_check", "total"),
}

COUNTS = (
    "cohomology.assemble.calls", "cohomology.assemble.rows", "cohomology.assemble.cols",
    "cohomology.assemble.nnz", "linalg.rank.calls", "linalg.rank",
    "linalg.kernel_basis.calls", "linalg.kernel_dim", "linalg.components",
    "linalg.largest_component_cols",
)


def components(matrix) -> tuple:
    """(number of connected components, columns in the largest one).

    Columns are joined when a row holds both; a column no row touches
    is a component of its own.
    """
    parent = list(range(matrix.n_cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in matrix.rows:
        root = find(row[0][0])
        for c, _ in row[1:]:
            rc = find(c)
            if rc != root:
                parent[rc] = root
    sizes: dict = {}
    for c in range(matrix.n_cols):
        r = find(c)
        sizes[r] = sizes.get(r, 0) + 1
    return len(sizes), max(sizes.values(), default=0)


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self):
        self.spans: list = []      # finished spans of every traced pass
        self._pass_spans: list = []
        self._pending: list = []   # (span name, call args, result) to count
        self._stack: list = []
        self._next_id = 0
        self._op = None
        self._saved: list = []

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap(self, fn, name):
        """``fn`` recording a span named ``name`` on each call."""
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            if self._stack:
                parent = self._stack[-1]
            else:   # a root span: the operation its descendants share
                parent, self._op = None, span_id
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._pass_spans.append((span_id, name, start, end, parent, self._op))
            if counted:
                self._pending.append((name, args, result))
            return result

        return traced

    def take_pass(self) -> tuple:
        """Per-layer times and counts of the pass just run; resets the pass."""
        spans, pending = self._pass_spans, self._pending
        self.spans.extend(spans)
        self._pass_spans, self._pending = [], []
        return layer_times(spans), count(pending)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans}, f)
            f.write("\n")


def layer_times(spans) -> dict:
    """Per-layer metric values from one pass's spans (seconds)."""
    child_time: dict = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    total: dict = {}
    own: dict = {}
    for span_id, name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
    out = {}
    for metric, (name, kind) in TIMES.items():
        out[metric] = (own if kind == "self" else total).get(name, 0.0)
    out["trace.spans"] = len(spans)
    return out


def count(pending) -> dict:
    """Exact counts from the results of the counted calls."""
    out = dict.fromkeys(COUNTS, 0)
    triples = useful = 0
    for name, args, result in pending:
        if name == "cohomology.assemble_Z2_system":
            matrix = result.matrix
            out["cohomology.assemble.calls"] += 1
            out["cohomology.assemble.rows"] += matrix.n_rows
            out["cohomology.assemble.cols"] += matrix.n_cols
            out["cohomology.assemble.nnz"] += matrix.nnz
            useful += len({label.triple for label in result.row_labels})
            triples += comb(result.alg.dim, 3)
            n_comp, largest = components(matrix)
            out["linalg.components"] += n_comp
            out["linalg.largest_component_cols"] = max(out["linalg.largest_component_cols"],
                                                       largest)
        elif name == "linalg.rank_certified":
            out["linalg.rank.calls"] += 1
            out["linalg.rank"] += result
        elif name == "linalg.nullity":
            out["linalg.rank.calls"] += 1
            out["linalg.rank"] += args[0].n_cols - result
        else:
            out["linalg.kernel_basis.calls"] += 1
            out["linalg.kernel_dim"] += result.dim
    out["cohomology.assemble.useful_triple_ratio"] = useful / triples if triples else 0.0
    return out
