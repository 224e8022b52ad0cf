"""The benchmark tracer's wrapped names still exist and still see the work.

``bench/spans.py`` rebinds names that colorfil modules import; a rename
under ``src/`` would otherwise only surface when the benchmark runs
with ``--trace 1``, and a rank taken behind another name would drop out
of the per-layer timings.
"""

import importlib
from collections import Counter
from itertools import product
from pathlib import Path

import colorfil.cli
import colorfil.cohomology
from colorfil.algebra import build_model
from colorfil.cohomology import ALL_BLOCKS, _term_sums, assemble_Z2_system, cochain_columns
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
    # block_dims ranks the rows of every block that has columns through that
    # name, once, each on all the rows of a _term_sums call over that block
    # alone, and neither restricts to blocks nor ranks the joint matrix.
    # No model row spans two blocks, so the joint rows, the joint rank and
    # with them DecompositionMismatch are never reached on the model
    events = []  # ("sums", blocks, cols, rows) and ("rank", rows, rank), in call order

    def recording_sums(alg, blocks, allow_x0_target):
        ranges, sums = _term_sums(alg, blocks, allow_x0_target)
        rows = [row for acc in sums.values() for row in acc.values()]
        events.append(("sums", tuple(blocks), sum(len(cols) for _, cols in ranges), rows))
        return ranges, sums

    def counting(rows):
        rows = list(rows)
        events.append(("rank", rows, rank_certified(rows)))
        return events[-1][2]

    def forbidden(*args, **kwargs):
        raise AssertionError("block_dims called a whole-matrix pass")

    def ranked_blocks():
        """(block, columns, rank) per rank call, from the _term_sums call before it."""
        out = []
        for k, event in enumerate(events):
            if event[0] != "rank":
                continue
            kind, blocks, cols, made = events[k - 1]
            assert kind == "sums" and len(blocks) == 1, blocks
            # the rows ranked are exactly those this call made, as it made them
            assert list(map(id, event[1])) == list(map(id, made))
            out.append((blocks[0], cols, event[2]))
        return out

    monkeypatch.setattr(colorfil.cohomology, "_term_sums", recording_sums)
    monkeypatch.setattr(colorfil.cohomology, "rank_certified", counting)
    monkeypatch.setattr(colorfil.cohomology, "_restrict_to_block", forbidden)
    monkeypatch.setattr(colorfil.cohomology, "nullity", forbidden)
    for nmp in product(range(1, 9), range(7), range(7)):
        alg = build_model(*nmp)
        for allow_x0_target in (False, True):
            columns = Counter(key.block for key in cochain_columns(alg, ALL_BLOCKS,
                                                                   allow_x0_target))
            events.clear()
            dims = colorfil.cohomology.block_dims(alg, allow_x0_target)
            point = (nmp, allow_x0_target)
            ranked = ranked_blocks()
            assert sorted(block.name for block, _, _ in ranked) == \
                sorted(block.name for block in columns), point
            assert all(cols == columns[block] for block, cols, _ in ranked), point
            assert all(kind == "rank" or len(blocks) == 1
                       for kind, blocks, *_ in events), point
            assert dims == {block: columns[block] for block in ALL_BLOCKS} | \
                {block: cols - rank for block, cols, rank in ranked}, point
    # every block holds columns and rows at (8,6,6), and the block ranks sum
    # to the joint rank
    alg = build_model(8, 6, 6)
    joint = assemble_Z2_system(alg)
    events.clear()
    colorfil.cohomology.block_dims(alg)
    ranked = ranked_blocks()
    assert {joint.col_keys[row[0][0]].block for row in joint.matrix.rows} == set(ALL_BLOCKS)
    assert len(ranked) == len(ALL_BLOCKS)
    assert all(event[1] for event in events if event[0] == "rank")
    assert sum(rank for _, _, rank in ranked) == rank_certified(joint.matrix)


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
