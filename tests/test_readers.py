"""Outside documents cost what they hold: `deform` under a capped address space.

Each test runs `cli.main` in one child process whose address space is capped
at 512 MiB (RLIMIT_AS, set by the child on itself), so a reader that
allocates by what a document declares, not by what it holds, ends in a
MemoryError there instead of exhausting the machine.  The fuzz test mutates
the (3,2,2) model file and the block-D export with a committed list of
replacement values and keys under committed seeds.
"""

import copy
import json
import os
import random
import subprocess
import sys

import pytest

import colorfil
from colorfil import cli
from colorfil.algebra import build_model
from colorfil.cohomology import BlockKind, cocycle_basis_json

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="RLIMIT_AS caps the address space on Linux")

CAP_BYTES = 512 * 2**20

# reads [argv, ...] from stdin and writes [[exit code or None, stdout, stderr,
# seconds], ...]: None and the traceback as stderr when main raised
CHILD = """
import contextlib, io, json, resource, sys, time, traceback
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from colorfil.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except BaseException:
        code, err = None, io.StringIO(traceback.format_exc())
    results.append([code, out.getvalue(), err.getvalue(), time.perf_counter() - start])
json.dump(results, sys.stdout)
"""


def run_capped(argvs: list) -> list:
    """(code, stdout, stderr, seconds) of `main(argv)` per argv, in one capped child."""
    src = os.path.dirname(os.path.dirname(colorfil.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(CAP_BYTES)], input=json.dumps(argvs),
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [tuple(result) for result in json.loads(proc.stdout)]


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# dims [10**40, 2, 2] with no constants, 110 bytes as written out
HUGE_DIMS = {"k": 3, "dims": [10**40, 2, 2], "beta": [[1, 1, 1]] * 3, "constants": []}


def test_huge_dims_document_exits_2_under_the_cap(tmp_path):
    # the (3,2,2) export's (n, m, p) disagree with the document's, which
    # used to be read only after one basis element per index was stored
    algebra = tmp_path / "huge.json"
    algebra.write_text(json.dumps(HUGE_DIMS, separators=(",", ":")))
    assert algebra.stat().st_size == 110
    export = write_json(tmp_path / "d.json", cocycle_basis_json(build_model(3, 2, 2), BlockKind.D))
    ((code, out, err, _),) = run_capped([["deform", "--algebra", str(algebra),
                                          "--cocycle", export]])
    assert (code, out) == (2, ""), err[-2000:]
    assert err.startswith("error: ") and err.count("\n") == 1, err[-2000:]


def _constant(lhs, rhs, target):
    return {"lhs": lhs, "rhs": rhs, "value": [{"basis": target, "coeff": 1}]}


@pytest.mark.parametrize("dims, constants, terms, code, printed", [
    # [Y1, Y2] = Z1 is integrable; L_0 has no brackets, so the filiform
    # check fails it before listing L_0's 10**40 elements
    ([10**40, 2, 2], [], [{"block": "D", "i": 1, "j": 2, "s": 1, "coeff": 1}],
     0, '{"integrable": true, "filiform": false}\n'),
    # L_0 passes; L_1 has one bracket with L_0 where its first step needs 10**40 - 1
    ([2, 10**40, 1], [_constant("X0", "Y1", "Y2")], [],
     0, '{"integrable": true, "filiform": false}\n'),
    # a base that fails Jacobi: only the reported triple is labelled
    ([10**40, 2, 2], [_constant("X0", "X1", "X2"), _constant("X1", "X2", "X1")], [],
     3, "error: base algebra fails the Jacobi identity: J(X0, X1, X2) = -1*X2 != 0\n"),
], ids=["D-term", "L1", "not-Lie"])
def test_huge_dims_document_costs_what_its_constants_hold(tmp_path, dims, constants, terms,
                                                          code, printed):
    algebra = write_json(tmp_path / "huge.json", {**HUGE_DIMS, "dims": dims,
                                                  "constants": constants})
    n, m, p = dims[0] - 1, dims[1], dims[2]
    cochain = write_json(tmp_path / "terms.json", {"n": n, "m": m, "p": p, "terms": terms})
    ((got, out, err, seconds),) = run_capped([["deform", "--algebra", algebra, "--cocycle",
                                               cochain, "--out", str(tmp_path / "out.json")]])
    assert (got, out if code == 0 else err) == (code, printed), err[-2000:]
    assert seconds < 1.0


# -- the fuzzer ---------------------------------------------------------

FUZZ_SEEDS = (1, 2, 3)
MUTATIONS_PER_SEED = 100
# values put in place of a value, or under an added key: not JSON's types
# alone but the numbers, labels and scalars the readers must refuse
FUZZ_VALUES = (
    None, True, False, 0.5, 2.0, -0.0, 0, -1, 10**40, -10**40,
    "", "X", "X0", "X01", "Y0", "Z3", "x1", "X+1", "X 1", "X\uff11", "X" + "9" * 5000,
    "A", "D", "1e10000000", "1_0", "-3/2", "1/0", "nan", "\u0661",
    [], [1], [[]], ["X0", "X1"], {}, {"a": 1}, {"lhs": "X0"},
)
# keys added to an object: the readers' own fields, and one they do not know
FUZZ_KEYS = ("k", "dims", "beta", "constants", "lhs", "rhs", "value", "basis", "coeff",
             "block", "n", "m", "p", "dim", "terms", "i", "j", "s", "extra")


def _slots(doc) -> list:
    """(container, key) of every value in doc, nested ones too, in a fixed order."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        for key in (sorted(node) if isinstance(node, dict) else range(len(node))):
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


def mutate(doc: dict, rng: random.Random) -> dict:
    """A copy of doc with one or two values replaced, keys dropped or keys added."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(("replace", "drop", "add"))
        slots = _slots(doc)
        if kind == "replace" and slots:
            node, key = rng.choice(slots)
            node[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
            continue
        objects = [doc] + [node[key] for node, key in slots if isinstance(node[key], dict)]
        node = rng.choice(objects)
        if kind == "drop" and node:
            del node[rng.choice(sorted(node))]
        else:
            node[rng.choice(FUZZ_KEYS)] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return doc


def test_fuzzed_documents_exit_with_a_code_and_an_error_line(tmp_path):
    alg = build_model(3, 2, 2)
    algebra, export = alg.to_json_dict(), cocycle_basis_json(alg, BlockKind.D)
    algebra_path = write_json(tmp_path / "m.json", algebra)
    export_path = write_json(tmp_path / "d.json", export)
    argvs = []
    for seed in FUZZ_SEEDS:
        rng = random.Random(seed)
        for k in range(MUTATIONS_PER_SEED):
            paths = [algebra_path, export_path]
            which = k % 2  # the algebra file, then the export
            paths[which] = write_json(tmp_path / f"{seed}-{k}.json",
                                      mutate((algebra, export)[which], rng))
            argvs.append(["deform", "--algebra", paths[0], "--cocycle", paths[1],
                          "--out", str(tmp_path / "out.json")])
    results = run_capped(argvs)
    codes = {0} | {code for _, code, _ in cli.ERROR_EXITS}
    for argv, (code, _, err, _) in zip(argvs, results):
        assert code in codes, (argv, err[-2000:])
        assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1), (argv, err)
    assert {code for code, *_ in results} >= {0, 2}
    assert sum(seconds for *_, seconds in results) < 5.0
