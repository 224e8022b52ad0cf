"""Exit-code contract and output formats of the command line."""

import io
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

import colorfil
from colorfil import cli, deformation, formulas
from colorfil.algebra import build_model
from colorfil.cli import main
from colorfil.cohomology import ALL_BLOCKS, block_named, cocycle_basis_json
from colorfil.weights import count_weight_dim


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_closed_golden(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "2", "--m", "1", "--p", "1",
                           "--method", "closed")
    assert code == 0
    report = json.loads(out)
    assert report == {"n": 2, "m": 1, "p": 1, "method": "closed_form",
                      "A": 1, "B": 1, "C": 1, "D": 0, "E": 1, "F": 0, "total": 4}


def test_dims_brute_total(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "1", "--m", "1", "--p", "1",
                           "--method", "brute")
    assert code == 0
    assert json.loads(out)["total"] == 3


def test_dims_weights_complete(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "3", "--m", "2", "--p", "2",
                           "--method", "weights")
    assert code == 0
    report = json.loads(out)
    assert [report[name] for name in "ABCDEF"] == [3, 4, 4, 1, 4, 1]
    assert report["total"] == 17


def test_dims_multiple_methods(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "2", "--m", "2", "--p", "2",
                           "--method", "closed", "--method", "brute")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["method"] for r in lines] == ["closed_form", "brute_force"]
    assert lines[0]["total"] == lines[1]["total"]
    # aliases of one method print one report, in first-seen order
    code, out, _ = run_cli(capsys, "dims", "--n", "2", "--m", "2", "--p", "2",
                           "--method", "brute", "--method", "closed",
                           "--method", "brute_force")
    assert code == 0
    assert [json.loads(line)["method"] for line in out.strip().splitlines()] == \
        ["brute_force", "closed_form"]


def test_dims_invalid_n_exits_2(capsys):
    code, _, err = run_cli(capsys, "dims", "--n", "0", "--m", "1", "--p", "1")
    assert code == 2
    assert "n must be" in err


@pytest.mark.parametrize("method", ["closed", "brute", "weights"])
def test_dims_negative_m_or_p_exits_2(capsys, method):
    # one statement of the parameter domain (n too): the closed forms,
    # brute force and the weight oracle refuse a point in the same words
    for (n, m, p), message in [(("0", "1", "1"), "n must be >= 1, got 0"),
                               (("2", "-1", "1"), "m and p must be >= 0, got m=-1, p=1"),
                               (("2", "1", "-1"), "m and p must be >= 0, got m=1, p=-1")]:
        code, out, err = run_cli(capsys, "dims", "--n", n, "--m", m, "--p", p,
                                 "--method", method)
        assert (code, out, err) == (2, "", f"error: {message}\n"), (method, n, m, p)


def test_dims_allow_x0_target_refused_for_closed_and_weights(capsys):
    # the closed forms and the weight oracle count only the space with X0
    # excluded, so printing them next to the unconstrained brute count
    # (closed A=1 beside brute A=2 at (2,1,1)) would hide a disagreement
    point = ["dims", "--n", "2", "--m", "1", "--p", "1", "--allow-x0-target"]
    for methods in (["closed"], ["weights"], ["closed", "brute"], ["brute", "weights"], []):
        argv = point + [arg for m in methods for arg in ("--method", m)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), methods
        assert err.startswith("error: --allow-x0-target applies to --method brute only")
    code, out, _ = run_cli(capsys, *point, "--method", "brute")
    assert code == 0
    assert json.loads(out)["A"] == 2


def test_dims_arithmetic_error_exits_1(capsys, monkeypatch):
    for error in (formulas.IntegralityError("dim_A: 7 not divisible by 2"),
                  cli.DecompositionMismatch("joint kernel dimension 5 != block sum 4")):
        def failing(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "compute_report", failing)
        code, out, err = run_cli(capsys, "dims", "--n", "2", "--m", "1", "--p", "1")
        assert (code, out) == (1, "")
        assert err == f"error: {type(error).__name__}: {error}\n"


def test_verify_small_grid_agrees(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1..3", "--m", "1..2",
                           "--p", "1..2", "--jobs", "1")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3 * 2 * 2 * 6
    assert all(row["agree"] for row in rows)
    # deterministic ordering by (n, m, p, block)
    keys = [(r["n"], r["m"], r["p"], r["block"]) for r in rows]
    assert keys == sorted(keys)


def test_verify_csv_and_json_numeric_content_match(capsys, tmp_path):
    args = ["verify", "--n", "1..2", "--m", "1..2", "--p", "1", "--jobs", "1"]
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    json_rows = json.loads(out)
    code, out, _ = run_cli(capsys, *args, "--format", "csv",
                           "--output", str(tmp_path / "report.csv"))
    assert code == 0
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    csv_rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(csv_rows) == len(json_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        for key in ("n", "m", "p"):
            assert int(crow[key]) == jrow[key]
        assert crow["block"] == jrow["block"]
        for method in ("brute_force", "closed_form", "weight_oracle"):
            assert crow[method] == str(jrow[method])


def test_verify_jobs_bounded_by_cores_and_points(monkeypatch):
    # a fake pool records the worker count it is asked for; nothing is spawned
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    methods = [formulas.METHOD_CLOSED]
    points = [(n, 1, 1) for n in range(1, 7)]
    rows, _ = cli.run_verify(points, methods, jobs=64)
    assert requested == [4]
    assert rows == cli.run_verify(points, methods, jobs=1)[0]
    cli.run_verify(points[:3], methods, jobs=64)
    assert requested == [4, 3]
    cli.run_verify(points[:1], methods, jobs=64)  # one point runs serially
    assert requested == [4, 3]


def test_verify_falls_back_to_serial_when_a_worker_is_killed(capsys, monkeypatch):
    # the OS killing a worker breaks the pool; the grid is then computed
    # serially, as when no subprocess can be started
    class KilledPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    argv = ["verify", "--n", "1..4", "--m", "0..1", "--p", "1", "--format", "csv"]
    serial = run_cli(capsys, *argv, "--jobs", "1")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", KilledPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    points = [(n, m, 1) for n in range(1, 5) for m in range(2)]
    methods = [formulas.METHOD_BRUTE, formulas.METHOD_CLOSED, formulas.METHOD_WEIGHTS]
    rows, mismatches = cli.run_verify(points, methods, jobs=4)
    assert (rows, mismatches) == cli.run_verify(points, methods, jobs=1)
    assert run_cli(capsys, *argv, "--jobs", "4") == serial
    assert serial[0] == 0


def test_verify_detects_corrupted_formula(capsys, monkeypatch):
    # harness self-test: a wrong closed form must trip the mismatch channel
    monkeypatch.setattr(formulas, "_dim_A", lambda n: (999, "odd"))
    code, _, err = run_cli(capsys, "verify", "--n", "2", "--m", "1", "--p", "1",
                           "--methods", "brute,closed", "--jobs", "1")
    assert code == 1
    assert "block=A" in err


def test_verify_degenerate_closed_form_outside_domain_agrees(capsys):
    # at p = 0, n = m + 2 the closed form for E reads -1 where brute force
    # finds 0: the value is printed, but it lies outside the formula's
    # domain, so the row agrees and the grid exits 0
    code, out, err = run_cli(capsys, "verify", "--n", "1..8", "--m", "0..6", "--p", "0",
                             "--format", "csv", "--jobs", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "n,m,p,block,brute_force,closed_form,weight_oracle,agree"
    assert [line for line in out.splitlines() if ",-1," in line] == \
        [f"{m + 2},{m},0,E,0,-1,0,true" for m in range(7)]
    assert all(line.endswith(",true") for line in out.splitlines()[1:])


@pytest.mark.parametrize("point, module, name, value, block", [
    # a non-negative closed form is inside the domain, degenerate or not
    ((2, 0, 0), formulas, "_dim_E", lambda n, m, p: (5, "even/quadratic"), "E"),
    # a negative one is outside it only on a degenerate model
    ((3, 1, 1), formulas, "_dim_E", lambda n, m, p: (-1, "even/quadratic"), "E"),
    # brute force and the weight oracle must agree on a degenerate model
    ((2, 0, 0), cli, "count_weight_dim", lambda block, n, m, p: 7, "A"),
    # ... on every block, E included, where the closed form reads -1
    ((2, 0, 0), cli, "count_weight_dim",
     lambda block, n, m, p: 7 if block.name == "E" else count_weight_dim(block, n, m, p), "E"),
])
def test_verify_degenerate_rule_still_reports_mismatches(capsys, monkeypatch, point, module,
                                                         name, value, block):
    monkeypatch.setattr(module, name, value)
    n, m, p = map(str, point)
    code, _, err = run_cli(capsys, "verify", "--n", n, "--m", m, "--p", p, "--jobs", "1")
    assert code == 1
    assert f"n={n} m={m} p={p} block={block}" in err


def test_verify_worker_failure_exits_1(capsys, monkeypatch):
    # an error at one point is reported on stderr; the healthy points'
    # rows are printed exactly as a grid without the failing point
    healthy = run_cli(capsys, "verify", "--n", "1", "--m", "1", "--p", "1..2",
                      "--format", "csv", "--jobs", "1")
    compute_report = cli.compute_report

    def failing(n, m, p, method, **kw):
        if (n, m, p) == (2, 1, 1):
            raise formulas.IntegralityError("dim_A: 7 not divisible by 2")
        return compute_report(n, m, p, method, **kw)

    monkeypatch.setattr(cli, "compute_report", failing)
    code, out, err = run_cli(capsys, "verify", "--n", "1..2", "--m", "1", "--p", "1..2",
                             "--format", "csv", "--jobs", "1")
    assert code == 1
    assert "n=2 m=1 p=1" in err and "IntegralityError: dim_A" in err
    assert "n=2 m=1 p=2" not in err
    assert sum(line.startswith("2,1,2,") for line in out.splitlines()) == 6
    assert [line for line in out.splitlines() if not line.startswith("2,")] == \
        healthy[1].splitlines()


@pytest.mark.parametrize("methods", ["brute,closed,weights", "weights"])
def test_verify_negative_m_or_p_exits_2(capsys, monkeypatch, methods):
    # rejected before any grid point is computed
    monkeypatch.setattr(cli, "run_verify", None)
    # in the words of `dims`, at the grid's least m and p
    for m, p, least in [("-1", "1", "m=-1, p=1"), ("0..2", "-1..1", "m=0, p=-1")]:
        code, out, err = run_cli(capsys, "verify", "--n", "1..2", f"--m={m}", f"--p={p}",
                                 "--methods", methods, "--jobs", "1")
        assert (code, out, err) == (2, "", f"error: m and p must be >= 0, got {least}\n")


def test_verify_negative_jobs_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "1", "--m", "1", "--p", "1",
                             "--jobs", "-3")
    assert (code, out, err) == (
        2, "", "error: --jobs must be >= 0 (0: available cores), got -3\n")


def test_verify_empty_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "3..2", "--m", "1", "--p", "1")
    assert code == 2
    assert "empty" in err


def test_verify_bad_method_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--n", "1", "--m", "1", "--p", "1",
                "--methods", "sorcery")
    assert exc.value.code == 2


def test_cocycles_golden(capsys, tmp_path):
    out_path = tmp_path / "basis.json"
    code, _, _ = run_cli(capsys, "cocycles", "--n", "2", "--m", "1", "--p", "1",
                         "--block", "A", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc == {"block": "A", "n": 2, "m": 1, "p": 1, "dim": 1,
                   "basis": [[{"i": 1, "j": 2, "s": 2, "coeff": "1"}]]}


def test_cocycles_empty_block(capsys):
    code, out, _ = run_cli(capsys, "cocycles", "--n", "1", "--m", "1", "--p", "1",
                           "--block", "A")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 0 and doc["basis"] == []


@pytest.mark.parametrize("point, allow_x0_target, blocks", [
    ((8, 6, 6), False, ALL_BLOCKS), ((8, 6, 6), True, ALL_BLOCKS),
    ((3, 2, 2), False, ALL_BLOCKS), ((3, 2, 2), True, ALL_BLOCKS),
    ((1, 1, 1), False, (block_named("D"),)),  # the empty basis
])
def test_write_basis_is_json_dump_indent_2(point, allow_x0_target, blocks):
    alg = build_model(*point)
    for block in blocks:
        doc = cocycle_basis_json(alg, block, allow_x0_target=allow_x0_target)
        stream = io.StringIO()
        cli._write_basis(doc, stream)
        assert stream.getvalue() == json.dumps(doc, indent=2) + "\n", block.name


def test_cocycles_out_file_bytes_equal_stdout(capsys, tmp_path):
    out_path = tmp_path / "basis.json"
    argv = ["cocycles", "--n", "3", "--m", "2", "--p", "2", "--block", "C"]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, run_cli(capsys, *argv, "--out", str(out_path))) == (0, (0, "", ""))
    assert out_path.read_bytes() == out.encode()


def test_cocycles_unverified_kernel_exits_1(capsys, monkeypatch, tmp_path):
    # a basis vector outside the kernel is caught before anything is written
    from colorfil import cohomology
    from colorfil.linalg import KernelBasis

    def wrong(matrix):
        return KernelBasis((({c: 1 for c in range(matrix.n_cols)}, 1),))

    monkeypatch.setattr(cohomology, "kernel_basis", wrong)
    out_path = tmp_path / "basis.json"
    code, out, err = run_cli(capsys, "cocycles", "--n", "3", "--m", "2", "--p", "2",
                             "--block", "D", "--out", str(out_path))
    assert code == 1
    assert "M v = 0" in err and out == ""
    assert not out_path.exists()


def test_cocycles_unknown_block_exits_2(capsys):
    code, _, _ = run_cli(capsys, "cocycles", "--n", "1", "--m", "1", "--p", "1",
                         "--block", "Q")
    assert code == 2


@pytest.fixture
def deform_files(tmp_path):
    alg = build_model(3, 2, 1)
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(alg.to_json_dict()))

    def cochain_file(name, terms):
        path = tmp_path / name
        path.write_text(json.dumps({"n": 3, "m": 2, "p": 1, "terms": terms}))
        return path

    return alg_path, cochain_file


def test_deform_flow(capsys, tmp_path, deform_files):
    alg_path, cochain_file = deform_files
    coc = cochain_file("d.json", [{"block": "D", "i": 1, "j": 2, "s": 1, "coeff": "1"}])
    out_path = tmp_path / "deformed.json"
    code, out, _ = run_cli(capsys, "deform", "--algebra", str(alg_path),
                           "--cocycle", str(coc), "--out", str(out_path))
    assert code == 0
    assert json.loads(out) == {"integrable": True, "filiform": True}
    deformed = json.loads(out_path.read_text())
    assert {"lhs": "Y1", "rhs": "Y2",
            "value": [{"basis": "Z1", "coeff": 1}]} in deformed["constants"]


def test_deform_zero_cocycle_roundtrips(capsys, tmp_path, deform_files):
    alg_path, cochain_file = deform_files
    coc = cochain_file("zero.json", [])
    out_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "deform", "--algebra", str(alg_path),
                           "--cocycle", str(coc), "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["integrable"] is True
    assert json.loads(out_path.read_text()) == json.loads(alg_path.read_text())


def test_deform_out_dash_prints_one_document(capsys, deform_files):
    # "-" means stdout, as an omitted --out does: one verdict carrying the algebra
    alg_path, cochain_file = deform_files
    coc = cochain_file("d.json", [{"block": "D", "i": 1, "j": 2, "s": 1, "coeff": "1"}])
    argv = ["deform", "--algebra", str(alg_path), "--cocycle", str(coc)]
    code, out, _ = run_cli(capsys, *argv, "--out", "-")
    assert code == 0
    verdict = json.loads(out)
    assert (verdict["integrable"], verdict["filiform"]) == (True, True)
    assert {"lhs": "Y1", "rhs": "Y2",
            "value": [{"basis": "Z1", "coeff": 1}]} in verdict["algebra"]["constants"]
    assert run_cli(capsys, *argv) == (code, out, "")


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self._fd = fd

    def writable(self):
        return True

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


@pytest.mark.parametrize("command", ["verify", "deform"])
def test_closed_stdout_exits_2_without_traceback(capsys, monkeypatch, tmp_path, deform_files,
                                                  command):
    # `colorfil ... | head`: exit 2, as for an unwritable --out, with nothing on
    # stderr, and stdout pointed at devnull so the flush at exit cannot fail
    alg_path, cochain_file = deform_files
    argv = {
        "verify": ["verify", "--n", "1..2", "--m", "0..1", "--p", "0..1",
                   "--format", "csv", "--jobs", "1"],
        "deform": ["deform", "--algebra", str(alg_path),
                   "--cocycle", str(cochain_file("zero.json", [])), "--out", "-"],
    }[command]
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    fds = "/proc/self/fd"
    before = len(os.listdir(fds)) if os.path.isdir(fds) else None
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(argv)
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        if before is not None:  # the devnull descriptor is closed, not leaked
            assert len(os.listdir(fds)) == before
    finally:
        os.close(fd)
    assert (code, capsys.readouterr().err) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_without_traceback():
    # a write to stdout that fails (ENOSPC) is an unwritable output: exit 2
    # with one error line, not a traceback and the mismatch code 1
    src = os.path.dirname(os.path.dirname(colorfil.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "colorfil.cli", "cocycles", "--n", "3", "--m", "2",
             "--p", "2", "--block", "C"],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_deform_non_cocycle_exits_3(capsys, tmp_path, deform_files):
    alg_path, cochain_file = deform_files
    coc = cochain_file("bad.json", [{"block": "A", "i": 1, "j": 2, "s": 1, "coeff": "1"}])
    code, _, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                           "--cocycle", str(coc))
    assert code == 3
    assert err == ("error: phi fails the 2-cocycle conditions on the base algebra: "
                   "d2 phi(X0, X1, X2) = 1*X2 != 0\n")


def test_deform_route_disagreement_exits_1(capsys, monkeypatch, tmp_path):
    # D + F at (1,2,2) is a cocycle that does not integrate; a Jacobi route
    # that sees nothing wrong with phi alone must stop deform with exit 1
    alg = build_model(1, 2, 2)
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(alg.to_json_dict()))
    coc = tmp_path / "df.json"
    coc.write_text(json.dumps({"n": 1, "m": 2, "p": 2, "terms": [
        {"block": "D", "i": 1, "j": 2, "s": 2, "coeff": "1"},
        {"block": "F", "i": 1, "j": 2, "s": 2, "coeff": "1"}]}))
    argv = ["deform", "--algebra", str(alg_path), "--cocycle", str(coc)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["integrable"] is False
    real = deformation.validate_jacobi  # phi alone is the one law where X0 brackets nothing
    monkeypatch.setattr(deformation, "validate_jacobi",
                        lambda law: real(law) if 0 in law.bracket_index else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("error: IntegrabilityMismatch: J(Y1, Y2, Z1) is -1*Y2 on mu0 + phi "
                   "but 0 on phi alone\n")


def test_deform_non_lie_base_exits_3(capsys, tmp_path):
    base = build_model(3, 2, 2)
    alg = base.with_added_constants({(base.index("X1"), base.index("Y1")): {base.index("Y1"): 1}})
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(alg.to_json_dict()))
    coc = tmp_path / "zero.json"
    coc.write_text(json.dumps({"n": 3, "m": 2, "p": 2, "terms": []}))
    code, out, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                             "--cocycle", str(coc))
    assert code == 3
    assert out == ""
    assert err == ("error: base algebra fails the Jacobi identity: "
                   "J(X0, X1, Y1) = -1*Y2 != 0\n")


def test_deform_malformed_json_exits_2(capsys, tmp_path, deform_files):
    alg_path, cochain_file = deform_files
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "deform", "--algebra", str(alg_path),
                         "--cocycle", str(bad))
    assert code == 2
    # nesting deeper than the parser's stack is malformed input, not a
    # RecursionError traceback: as the algebra, and as a cochain's terms
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    deep_terms = tmp_path / "deep_terms.json"
    deep_terms.write_text('{"n": 3, "m": 2, "p": 1, "terms": ' + "[" * 100000 + "]" * 100000 + "}")
    for algebra, cocycle in [(deep, cochain_file("ok.json", [])), (alg_path, deep_terms)]:
        code, out, err = run_cli(capsys, "deform", "--algebra", str(algebra),
                                 "--cocycle", str(cocycle))
        assert (code, out) == (2, ""), cocycle
        assert err.startswith("error: ") and "maximum recursion depth" in err, cocycle
    # non-integer indices are rejected, not truncated to a valid D term
    for name, terms in [("float.json", [{"block": "D", "i": 1.7, "j": 2, "s": 1, "coeff": 1}]),
                        ("bool.json", [{"block": "D", "i": 1, "j": 2, "s": True, "coeff": 1}])]:
        code, _, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                               "--cocycle", str(cochain_file(name, terms)))
        assert code == 2, name
        assert "must be an integer" in err
    # float, null, zero-denominator and exponent-notation coefficients
    # (Fraction would expand "1e10000000" for seconds), digit separators
    # (read as 10 and 1/20 from Python 3.11 on only), non-list terms and
    # terms that are not objects: a message and exit 2, no traceback
    term = {"block": "D", "i": 1, "j": 2, "s": 1}
    for name, terms in [("fcoeff.json", [{**term, "coeff": 0.5}]),
                        ("ncoeff.json", [{**term, "coeff": None}]),
                        ("zcoeff.json", [{**term, "coeff": "1/0"}]),
                        ("ecoeff.json", [{**term, "coeff": "1e10000000"}]),
                        ("ucoeff.json", [{**term, "coeff": "1_0"}]),
                        ("uqcoeff.json", [{**term, "coeff": "1/2_0"}]),
                        ("dterms.json", {}), ("iterms.json", 7),
                        ("iterm.json", [7]), ("lterm.json", [["D", 1, 2, 1, 1]])]:
        code, out, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                                 "--cocycle", str(cochain_file(name, terms)))
        assert (code, out) == (2, ""), name
        assert err.startswith("error: "), name
    # an unknown block letter or a missing field is named, not shown as a
    # bare KeyError repr
    for name, terms, message in [
            ("block5.json", [{**term, "block": "5", "coeff": 1}], "unknown block '5' (A-F)"),
            ("nocoeff.json", [term], "cochain term missing field 'coeff'")]:
        code, out, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                                 "--cocycle", str(cochain_file(name, terms)))
        assert (code, out, err) == (2, "", f"error: {message}\n"), name
    # a basis map named twice (also as the swapped pair of the alternating
    # block D) is refused, not summed; an index outside the block is
    # refused whatever the coefficient
    one = {**term, "coeff": "1"}
    for name, terms, message in [
            ("twice.json", [one, one],
             "cochain names the basis map of block D at i=1, j=2, s=1 twice"),
            ("swapped.json", [one, {**one, "i": 2, "j": 1}],
             "cochain names the basis map of block D at i=2, j=1, s=1 twice"),
            ("outside0.json", [{"block": "D", "i": 99, "j": 100, "s": 7, "coeff": "0"}],
             "source index i=99 out of range for block D")]:
        code, out, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                                 "--cocycle", str(cochain_file(name, terms)))
        assert (code, out, err) == (2, "", f"error: {message}\n"), name
    export = {"block": "D", "n": 3, "m": 2, "p": 1, "dim": 1}
    for k, basis in enumerate([5, [5], [[5]], [[{**term, "coeff": 1.5}]]]):
        path = tmp_path / f"export{k}.json"
        path.write_text(json.dumps({**export, "basis": basis}))
        code, out, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                                 "--cocycle", str(path))
        assert (code, out) == (2, ""), basis
        assert err.startswith("error: "), basis
    for field, message in [("block", "basis export missing field 'block'"),
                           ("n", "basis export missing field 'n'")]:
        path = tmp_path / f"export_no_{field}.json"
        doc = {**export, "basis": [[{**term, "coeff": 1}]]}
        del doc[field]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                                 "--cocycle", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n"), field
    path = tmp_path / "export_block_G.json"
    path.write_text(json.dumps({**export, "block": "G", "basis": [[{**term, "coeff": 1}]]}))
    code, out, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                             "--cocycle", str(path))
    assert (code, out, err) == (2, "", "error: unknown block 'G' (A-F)\n")
    good = cochain_file("good.json", [{"block": "D", "i": 1, "j": 2, "s": 1, "coeff": 1}])
    doc = json.loads(alg_path.read_text())
    for field, value in [("k", 3.9), ("dims", [4.2, True, 1])]:
        bad_alg = tmp_path / f"bad_{field}.json"
        bad_alg.write_text(json.dumps({**doc, field: value}))
        code, _, err = run_cli(capsys, "deform", "--algebra", str(bad_alg),
                               "--cocycle", str(good))
        assert code == 2, field
        assert "must be an integer" in err
    # the format keeps k and beta, but only Z_3 with the trivial factor is legal
    k_message = "error: k must be 3 (algebras are Z3-graded), got {}\n"
    beta_message = "error: beta must be the all-ones 3x3 table, the only commutation factor on Z3\n"
    for name, bad_doc, message in [
            ("super", {**doc, "k": 2, "dims": [1, 2], "beta": [[1, 1], [1, -1]]},
             k_message.format(2)),
            ("k4", {**doc, "k": 4, "dims": [2, 1, 1, 1], "beta": [[1] * 4] * 4},
             k_message.format(4)),
            ("nontrivial", {**doc, "beta": [[1, 1, 1], [1, 1, -1], [1, -1, 1]]}, beta_message),
            ("nonsquare", {**doc, "beta": [[1, 1, 1], [1, 1], [1, 1, 1]]}, beta_message),
            ("nobeta", {key: v for key, v in doc.items() if key != "beta"},
             "error: malformed algebra document: 'beta'\n"),
            ("dupbasis", {**doc, "constants": [
                {"lhs": "X0", "rhs": "X1",
                 "value": [{"basis": "X2", "coeff": 1}, {"basis": "X2", "coeff": -1}]}]},
             "error: duplicate basis element X2 in the value of pair X0,X1\n")]:
        bad_alg = tmp_path / f"bad_{name}.json"
        bad_alg.write_text(json.dumps(bad_doc))
        code, out, err = run_cli(capsys, "deform", "--algebra", str(bad_alg),
                                 "--cocycle", str(good))
        assert (code, out, err) == (2, "", message), name


@pytest.mark.parametrize("field, huge", [
    ("term", [0] * 100000), ("i", [0] * 100000), ("coeff", [0] * 100000),
    ("coeff", "x" * 100000), ("block", "A" * 100000), ("lhs", "Q" * 100000),
], ids=["term", "i", "coeff", "coeff-text", "block", "algebra-label"])
def test_deform_bounds_the_echo_of_a_huge_value(capsys, tmp_path, deform_files, field, huge):
    # a message names a bad value by a bounded repr, not by the whole input
    alg_path, cochain_file = deform_files
    term = {"block": "D", "i": 1, "j": 2, "s": 1, "coeff": 1}
    terms = [huge] if field == "term" else [{**term, field: huge}]
    if field == "lhs":  # a basis label of the algebra document
        doc = json.loads(alg_path.read_text())
        doc["constants"][0]["lhs"] = huge
        alg_path = tmp_path / "huge_label.json"
        alg_path.write_text(json.dumps(doc))
        terms = []
    code, out, err = run_cli(capsys, "deform", "--algebra", str(alg_path),
                             "--cocycle", str(cochain_file("huge.json", terms)))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.encode()) < 300, err[:400]


@pytest.mark.parametrize("command", ["verify", "cocycles", "deform"])
def test_unwritable_output_exits_2(capsys, tmp_path, deform_files, command):
    # a bad path is a usage error (2), not a mathematical mismatch (1)
    alg_path, cochain_file = deform_files
    missing = tmp_path / "no-such-dir" / "out.json"
    argv = {
        "verify": ["verify", "--n", "1", "--m", "1", "--p", "1", "--jobs", "1",
                   "--output", str(missing)],
        "cocycles": ["cocycles", "--n", "2", "--m", "1", "--p", "1", "--block", "A",
                     "--out", str(missing)],
        "deform": ["deform", "--algebra", str(alg_path),
                   "--cocycle", str(cochain_file("zero.json", [])), "--out", str(missing)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not missing.parent.exists()


def test_deform_accepts_basis_export(capsys, tmp_path):
    alg = build_model(2, 1, 1)
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(alg.to_json_dict()))
    code, out, _ = run_cli(capsys, "cocycles", "--n", "2", "--m", "1", "--p", "1",
                           "--block", "A", "--out", str(tmp_path / "basis.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "deform", "--algebra", str(alg_path),
                           "--cocycle", str(tmp_path / "basis.json"),
                           "--out", str(tmp_path / "deformed.json"))
    assert code == 0
    assert json.loads(out)["integrable"] is True


def test_console_script_entry_point():
    # the child imports the same colorfil as this process, installed or not
    src = os.path.dirname(os.path.dirname(colorfil.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "colorfil.cli", "dims", "--n", "1", "--m", "1",
         "--p", "1", "--method", "closed"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 3
