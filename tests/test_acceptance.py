"""Acceptance suite: every criterion at its stated tolerance.

All dimension comparisons are exact integer equality (zero tolerance).
Each criterion prints one PASS/FAIL line; run with `pytest -s` to see
them as they complete.  The heavy grids are computed once per session
and shared between criteria.
"""

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from itertools import combinations, product

import pytest

from colorfil.algebra import build_model
from colorfil.cohomology import (ALL_BLOCKS, BlockKind, Cochain2, ColumnKey,
                                 assemble_Z2_system, block_dims, delta1, delta2)
from colorfil.deformation import deform, filiform_check, is_integrable
from colorfil.formulas import branch_labels, main_theorem_total
from colorfil.weights import count_weight_dim

GRID_DEF = [(n, m, p) for n, m, p in product(range(1, 9), range(1, 7), range(1, 7))]
GRID_BC = [(n, m) for n, m in product(range(1, 13), range(1, 9))]
GRID_DEGENERATE = ([(n, m, 0) for n, m in GRID_BC] + [(n, 0, p) for n, p in GRID_BC]
                   + [(n, 0, 0) for n in range(1, 13)])
PERF_POINT = (25, 20, 20)
PERF_BUDGET_SECONDS = 300.0


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description} ({time.time() - start:.1f}s)")


def _parallel_map(fn, items):
    jobs = os.cpu_count() or 1
    if jobs > 1 and len(items) > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(fn, items, chunksize=4))
        except (OSError, PermissionError):
            pass
    return list(map(fn, items))


def _single_block_dim(nmp, block) -> int:
    system = assemble_Z2_system(build_model(*nmp), {block})
    return system.nullity()


def _block_dims_by_name(nmp) -> dict:
    return {block.name: d for block, d in block_dims(build_model(*nmp)).items()}


def _full_point(nmp):
    """Per-block brute dims plus the joint kernel dimension at one point."""
    joint = assemble_Z2_system(build_model(*nmp))
    return nmp, _block_dims_by_name(nmp), joint.nullity()


def _integrability_point(nmp):
    """Deform by every D-block kernel vector.

    Every pure D deformation must integrate, and every integrable
    deformation must still be graded filiform.
    """
    alg = build_model(*nmp)
    cochains = assemble_Z2_system(alg, {BlockKind.D}).kernel_cochains()
    ok = True
    for psi in cochains:
        law = deform(alg, psi)
        ok = ok and is_integrable(law) and filiform_check(law.result)
    return nmp, len(cochains), ok


@pytest.fixture(scope="module")
def grid_results():
    """(per-block dims, joint dim) at every grid point, plus compute time."""
    start = time.time()
    data = {nmp: (blocks, joint)
            for nmp, blocks, joint in _parallel_map(_full_point, GRID_DEF)}
    return data, time.time() - start


@pytest.fixture(scope="module")
def brute_BC():
    start = time.time()
    points_b = [((n, m, 0), BlockKind.B) for n, m in GRID_BC]
    points_c = [((n, 0, p), BlockKind.C) for n, p in GRID_BC]
    dims = _parallel_map(_star_block_dim, points_b + points_c)
    brute_b = {pt[0][:2]: d for pt, d in zip(points_b, dims[:len(points_b)])}
    brute_c = {(pt[0][0], pt[0][2]): d
               for pt, d in zip(points_c, dims[len(points_b):])}
    return brute_b, brute_c, time.time() - start


def _star_block_dim(args):
    return _single_block_dim(*args)


def test_criterion_1_block_A_closed_form():
    with criterion(1, "brute-force dim A equals the closed form for n in [1,16]"):
        start = time.time()
        residues = set()
        for n in range(1, 17):
            assert _single_block_dim((n, 1, 1), BlockKind.A) == main_theorem_total(n, 1, 1).A, f"n={n}"
            residues.add(n % 4)
        assert residues == {0, 1, 2, 3}  # all four proof cases exercised
        assert time.time() - start < 10.0


def test_criterion_2_blocks_B_C_closed_forms(brute_BC):
    with criterion(2, "brute-force dims B and C equal the closed forms on [1,12]x[1,8]"):
        brute_b, brute_c, fixture_seconds = brute_BC
        start = time.time()
        branches = set()
        for (n, m), got in brute_b.items():
            assert got == main_theorem_total(n, m, 1).B, f"B at (n={n}, m={m})"
            branches.add(branch_labels(n, m, 1)["B"])
        assert branches == {"odd", "even", "saturated"}
        branches_c = set()
        for (n, p), got in brute_c.items():
            assert got == main_theorem_total(n, 1, p).C, f"C at (n={n}, p={p})"
            branches_c.add(branch_labels(n, 1, p)["C"])
        assert branches_c == {"odd", "even", "saturated"}
        assert fixture_seconds + (time.time() - start) < 60.0


def test_criterion_3_blocks_D_E_F_closed_forms(grid_results):
    with criterion(3, "brute-force D, E, F equal the printed branch formulas on [1,8]x[1,6]x[1,6]"):
        data, fixture_seconds = grid_results
        start = time.time()
        seen = {"D": set(), "E": set(), "F": set()}
        for (n, m, p), (blocks, _) in data.items():
            closed = main_theorem_total(n, m, p)
            assert blocks["D"] == closed.D, f"D at {(n, m, p)}"
            assert blocks["E"] == closed.E, f"E at {(n, m, p)}"
            assert blocks["F"] == closed.F, f"F at {(n, m, p)}"
            labels = branch_labels(n, m, p)
            for name in seen:
                seen[name].add(labels[name])
        assert len(seen["D"]) == 4, seen["D"]
        assert len(seen["F"]) == 4, seen["F"]
        assert len(seen["E"]) == 9, seen["E"]
        assert fixture_seconds + (time.time() - start) < 300.0


def test_criterion_4_decomposition_lemma(grid_results):
    with criterion(4, "joint kernel dimension equals the sum of the six block dimensions"):
        data, _ = grid_results
        for nmp, (blocks, joint) in data.items():
            assert joint == sum(blocks.values()), f"decomposition at {nmp}"


def test_criterion_5_weight_oracle_equivalence(brute_BC, grid_results):
    with criterion(5, "weight-oracle counts equal brute-force dims for all six blocks"):
        brute_b, brute_c, _ = brute_BC
        for n in range(1, 13):
            assert count_weight_dim(BlockKind.A, n, 1, 1) == \
                _single_block_dim((n, 1, 1), BlockKind.A), f"A at n={n}"
        for (n, m), got in brute_b.items():
            assert count_weight_dim(BlockKind.B, n, m, 0) == got, f"B at {(n, m)}"
        for (n, p), got in brute_c.items():
            assert count_weight_dim(BlockKind.C, n, 0, p) == got, f"C at {(n, p)}"
        data, _ = grid_results
        brute = {nmp: blocks for nmp, (blocks, _) in data.items()}
        brute.update(zip(GRID_DEGENERATE, _parallel_map(_block_dims_by_name, GRID_DEGENERATE)))
        for nmp, blocks in brute.items():
            for block in ALL_BLOCKS:
                assert count_weight_dim(block, *nmp) == blocks[block.name], \
                    f"{block.name} at {nmp}"
            # p = 0 holds the points where the closed form for E reads -1
            if nmp[2] == 0:
                assert count_weight_dim(BlockKind.E, *nmp) == blocks["E"] == 0, nmp


def _map_weight(block, i, j, s, nmp):
    """Weight of phi^s_{i,j}: lambda(target_s) - lambda(source_i) - lambda(source_j).

    The t-th element of a chain of length d has weight -d + 2t - 1.
    """
    (g1, g2), g = block.source_degrees, block.target_degree
    return (-nmp[g] + 2 * s - 1) - (-nmp[g1] + 2 * i - 1) - (-nmp[g2] + 2 * j - 1)


def test_criterion_6_weight_parity():
    with criterion(6, "basis-cochain weight parity equals parity of n+1 for A, B, C"):
        for n, m in GRID_BC:
            nmp = (n, m, m)
            want = (n + 1) % 2
            for i, j in combinations(range(1, n + 1), 2):
                for s in range(1, n + 1):
                    assert _map_weight(BlockKind.A, i, j, s, nmp) % 2 == want
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    for s in range(1, m + 1):
                        assert _map_weight(BlockKind.B, i, j, s, nmp) % 2 == want
                        assert _map_weight(BlockKind.C, i, j, s, nmp) % 2 == want


def test_criterion_7_coboundaries_are_cocycles():
    with criterion(7, "d2 o d1 = 0 for 200 random degree-0 maps over 10 models"):
        rng = random.Random(20240817)
        models = [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1),
                  (3, 3, 3), (4, 2, 2), (4, 1, 1), (5, 2, 1), (2, 3, 3)]
        for nmp in models:
            alg = build_model(*nmp)
            for _ in range(20):
                g_map = {}
                for g in range(3):
                    comp = list(alg.component_indices(g))
                    for u in comp:
                        vec = {t: rng.randint(-3, 3) for t in comp if rng.random() < 0.4}
                        vec = {t: c for t, c in vec.items() if c}
                        if vec:
                            g_map[u] = vec
                db = delta1(alg, g_map)
                for triple in combinations(range(alg.dim), 3):
                    assert delta2(alg, db, triple) == {}, (nmp, triple)


def test_criterion_8_integrability(grid_results):
    with criterion(8, "pure D-block kernel vectors integrate; a D+F pair does not"):
        results = _parallel_map(_integrability_point, GRID_DEF)
        tested = 0
        for nmp, count, all_ok in results:
            assert all_ok, f"non-integrable D cocycle at {nmp}"
            tested += count
        assert tested > 0
        # constructed obstruction: D and F interact through the deformed bracket
        alg = build_model(1, 2, 2)
        phi = Cochain2(alg, {ColumnKey(BlockKind.D, 1, 2, 2): 1,
                             ColumnKey(BlockKind.F, 1, 2, 2): 1})
        assert not is_integrable(deform(alg, phi))


def test_criterion_9_performance_desk_scale():
    n, m, p = PERF_POINT
    with criterion(9, f"exact six-block computation at {PERF_POINT} under "
                      f"{PERF_BUDGET_SECONDS:.0f}s by fraction-free elimination"):
        start = time.time()
        dims = block_dims(build_model(n, m, p))
        elapsed = time.time() - start
        assert elapsed < PERF_BUDGET_SECONDS, f"took {elapsed:.1f}s"
        assert {b.name: d for b, d in dims.items()} == main_theorem_total(n, m, p).blocks()
