"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload draws its inputs from the seed alone; colorfil sees only
the generated points and files.  One pass runs all of a workload's
operations through the public entry points of ``colorfil.cli``
(``run_verify`` and ``main``), one caller at a time.  ``check`` then
verifies the pass's outputs and returns a digest that must repeat on
every pass and every run of the same seed.

The seed moves each input inside a family of near-equal cost, so that
the spread of a metric over seeds is run-to-run noise, not input size:

* grid-verify takes one fixed Latin square of the box and lets the seed
  swap m with p in each point (the model is symmetric in L1 and L2);
  its check accepts a negative closed form on the degenerate models,
  where the repository defers to brute force;
* cocycle-export picks (14, 10, 12) or its mirror (14, 12, 10), whose
  six kernels have 468 vectors, and which of them to deform.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import colorfil.cli as cli
from colorfil.algebra import build_model
from colorfil.cohomology import (ALL_BLOCKS, BlockKind, assemble_Z2_system,
                                 cochain_from_json, is_cocycle)
from colorfil.formulas import (METHOD_BRUTE, METHOD_CLOSED, METHOD_WEIGHTS,
                               main_theorem_total)

METHODS = [METHOD_BRUTE, METHOD_CLOSED, METHOD_WEIGHTS]
BLOCKS = "ABCDEF"


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


def _main_captured(argv) -> tuple:
    """(exit code, stdout text) of one ``colorfil`` command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _point_args(point) -> list:
    n, m, p = point
    return ["--n", str(n), "--m", str(m), "--p", str(p)]


def _row_agrees(row) -> bool:
    """One block of one point: the methods agree as the model requires.

    All present values must be equal, except on the degenerate models
    (m = 0 or p = 0).  There the printed closed forms may leave their
    domain, and brute force is the arbiter: brute force and the weight
    oracle must still agree, and the closed form must equal them unless
    it is negative, i.e. outside the range of a dimension.
    """
    brute, closed, weights = (row[method] for method in METHODS)
    if weights is not None and weights != brute:
        return False
    if row["m"] == 0 or row["p"] == 0:
        return closed == brute or (closed < 0 <= brute)
    return closed == brute


class GridVerify:
    """Many small points, each cross-checked by all three methods."""

    name = "grid-verify"
    delivering = "verify"   # the operations that deliver the cocycle dimensions
    point_per_op = True     # each operation completes one parameter point

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        # A Latin square of the box n in 1..12, m, p in 0..8: every n meets
        # every m and every p once.  The seed swaps m and p of each point,
        # which leaves its cost unchanged, and shuffles the order.
        points = []
        for n in range(1, 13):
            for m in range(9):
                p = (m + n) % 9
                points.append((n, m, p) if rng.random() < 0.5 else (n, p, m))
        rng.shuffle(points)
        self.points = points
        self.cocycles = sum(main_theorem_total(*pt).total for pt in points)

    def run_pass(self, op) -> list:
        return [op("verify", cli.run_verify, [pt], METHODS, jobs=1) for pt in self.points]

    def check(self, outputs, full: bool):
        """Yields (check name, passed); the last item is the pass digest."""
        chunks = []
        for pt, out in zip(self.points, outputs):
            rows, _ = out
            yield f"verify {pt}: methods agree", (len(rows) == len(ALL_BLOCKS)
                                                  and all(map(_row_agrees, rows)))
            chunks.append(json.dumps([pt, rows], sort_keys=True))
        yield "digest", _digest(*sorted(chunks))


class CocycleExport:
    """Export every block's kernel basis, then deform by a sample of its vectors."""

    name = "cocycle-export"
    delivering = "cocycles"
    point_per_op = False    # a pass completes the one point
    SAMPLE = 5

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.point = rng.choice([(14, 10, 12), (14, 12, 10)])
        self.points = [self.point]
        report = main_theorem_total(*self.point)
        self.dims = {b: getattr(report, b) for b in BLOCKS}
        self.cocycles = report.total
        # one D-block vector, the rest drawn in proportion to block size
        blocks = ["D"] + rng.choices(BLOCKS, weights=list(self.dims.values()),
                                     k=self.SAMPLE - 1)
        self.sample = [(b, rng.randrange(self.dims[b])) for b in blocks]
        self.workdir = workdir
        with open(self._path("model"), "w", encoding="utf-8") as f:
            json.dump(build_model(*self.point).to_json_dict(), f)

    def _path(self, stem: str) -> str:
        return os.path.join(self.workdir, stem + ".json")

    def run_pass(self, op) -> list:
        codes = [op("cocycles", cli.main, ["cocycles", *_point_args(self.point),
                                           "--block", b, "--out", self._path("basis-" + b)])
                 for b in BLOCKS]
        exported = {}
        for b in BLOCKS:
            with open(self._path("basis-" + b), "rb") as f:
                exported[b] = f.read()
        deformed = []
        for k, (b, idx) in enumerate(self.sample):
            doc = json.loads(exported[b])
            with open(self._path(f"cocycle-{k}"), "w", encoding="utf-8") as f:
                json.dump({**doc, "dim": 1, "basis": [doc["basis"][idx]]}, f)
            code, verdict = op("deform", _main_captured,
                               ["deform", "--algebra", self._path("model"),
                                "--cocycle", self._path(f"cocycle-{k}"),
                                "--out", self._path(f"deformed-{k}")])
            with open(self._path(f"deformed-{k}"), "rb") as f:
                deformed.append((code, verdict, f.read()))
        return [codes, exported, deformed]

    def check(self, outputs, full: bool):
        codes, exported, deformed = outputs
        alg = build_model(*self.point)
        for b, code in zip(BLOCKS, codes):
            doc = json.loads(exported[b])
            yield f"cocycles {b} exit code 0", code == 0
            yield f"cocycles {b} dim = closed form", doc["dim"] == self.dims[b] == len(doc["basis"])
            if full:
                yield f"cocycles {b}: M v = 0", self._in_kernel(alg, BlockKind[b], doc["basis"])
        for (b, idx), (code, verdict, _) in zip(self.sample, deformed):
            yield f"deform {b}[{idx}] exit code 0", code == 0
            if b == "D":
                verdict = json.loads(verdict)
                yield f"deform {b}[{idx}] integrable and filiform", (verdict["integrable"]
                                                                   and verdict["filiform"])
            if full:
                terms = [{"block": b, **t} for t in json.loads(exported[b])["basis"][idx]]
                doc = dict(zip("nmp", self.point), terms=terms)
                yield f"{b}[{idx}] is a cocycle", is_cocycle(alg, cochain_from_json(alg, doc))
        yield "digest", _digest(*(exported[b] for b in BLOCKS),
                                *(v.encode() + out for _, v, out in deformed))

    @staticmethod
    def _in_kernel(alg, block, basis) -> bool:
        """M v = 0 for every vector, on a block matrix assembled afresh."""
        system = assemble_Z2_system(alg, {block})
        col_of = {(k.i, k.j, k.s): c for c, k in enumerate(system.col_keys)}
        return all(not system.matrix.multiply_vector(
                       {col_of[(t["i"], t["j"], t["s"])]: Fraction(t["coeff"]) for t in vec})
                   for vec in basis)


WORKLOADS = {w.name: w for w in (GridVerify, CocycleExport)}


def make(name: str, seed: int, workdir: str):
    """Generate a workload's inputs from its seed."""
    return WORKLOADS[name](seed, workdir)
