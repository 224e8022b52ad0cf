"""The benchmark tracer's wrapped names still exist and still see the work.

``bench/spans.py`` rebinds names that colorfil modules import; a rename
under ``src/`` would otherwise only surface when the benchmark runs
with ``--trace 1``, and a rank taken behind another name would drop out
of the per-layer timings.
"""

import importlib
from pathlib import Path

import colorfil.cli
import colorfil.cohomology
from colorfil.algebra import build_model
from colorfil.cohomology import ALL_BLOCKS, assemble_Z2_system, cochain_columns
from colorfil.formulas import METHOD_WEIGHTS
from colorfil.linalg import kernel_basis, rank_certified
from colorfil.weights import count_weight_dim

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spans = importlib.import_module("spans")
    assert spans.WRAPPED
    for module, attr, name in spans.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_block_dims_ranks_each_block_once(monkeypatch):
    # the tracer times the rank layer through colorfil.cohomology.rank_certified;
    # block_dims ranks the rows of every block through that name, once, and
    # neither restricts to blocks nor ranks the joint matrix
    alg = build_model(8, 6, 6)
    joint = assemble_Z2_system(alg)
    ranks = []

    def counting(matrix):
        ranks.append(rank_certified(matrix))
        return ranks[-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("block_dims called a whole-matrix pass")

    monkeypatch.setattr(colorfil.cohomology, "rank_certified", counting)
    monkeypatch.setattr(colorfil.cohomology, "_restrict_to_block", forbidden)
    monkeypatch.setattr(colorfil.cohomology, "nullity", forbidden)
    dims = colorfil.cohomology.block_dims(alg)
    # every block holds columns and rows at this point
    assert {joint.col_keys[row[0][0]].block for row in joint.matrix.rows} == set(ALL_BLOCKS)
    assert len(ranks) == len(ALL_BLOCKS)
    assert sum(ranks) == rank_certified(joint.matrix)
    assert sum(dims.values()) == joint.matrix.n_cols - sum(ranks)


def test_cocycle_export_solves_once_through_the_traced_name(monkeypatch):
    # the tracer times the kernel layer through colorfil.cohomology.kernel_basis;
    # cocycle_basis_json solves its block through that name, once, straight
    # from the row sums, with no assembled ConstraintSystem in between
    alg = build_model(8, 6, 6)
    calls = []

    def counting(rows, n_cols):
        calls.append(n_cols)
        return kernel_basis(rows, n_cols)

    def forbidden(*args, **kwargs):
        raise AssertionError("cocycle_basis_json assembled a ConstraintSystem")

    monkeypatch.setattr(colorfil.cohomology, "kernel_basis", counting)
    monkeypatch.setattr(colorfil.cohomology, "assemble_Z2_system", forbidden)
    for block in ALL_BLOCKS:
        calls.clear()
        doc = colorfil.cohomology.cocycle_basis_json(alg, block)
        assert calls == [len(cochain_columns(alg, {block}))], block.name
        assert doc["dim"] == len(doc["basis"])


def test_weight_report_counts_through_the_traced_name(monkeypatch):
    # the tracer times the weight layer through colorfil.cli.count_weight_dim;
    # a weight report must count each of the six blocks through that name
    calls = []

    def counting(block, n, m, p):
        calls.append(block)
        return count_weight_dim(block, n, m, p)

    monkeypatch.setattr(colorfil.cli, "count_weight_dim", counting)
    report = colorfil.cli.compute_report(3, 2, 2, METHOD_WEIGHTS)
    assert sorted(calls, key=lambda b: b.name) == list(ALL_BLOCKS)
    assert report.total == 17
