"""Command-line frontend: dimension sweeps, cross-checks, exports.

Exit codes form the scripting contract:

    0  success / all requested methods agree
    1  mathematical mismatch between methods (the falsification channel)
    2  usage or parse error (bad flags, malformed files, empty grid,
       parameters out of range)
    3  structurally valid but invalid input object (e.g. not a cocycle,
       or a base algebra that fails the Jacobi identity)

Commands raise; `main` maps each error to its code and its `error:` line
through `ERROR_EXITS`, the one such mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import build_model, check_params, from_json_dict
from .cohomology import (ALL_BLOCKS, DecompositionMismatch, KernelMismatch, block_dims,
                         block_named, cochain_from_json, cocycle_basis, write_cocycle_basis)
# cocycle_basis_json is not called here; it stays importable because bench/spans.py rebinds it
from .cohomology import cocycle_basis_json
from .deformation import (CharacteristicVectorViolation, IntegrabilityMismatch, NotACocycle,
                          NotALieAlgebra, deform, filiform_check, is_integrable)
from .formulas import (METHOD_BRUTE, METHOD_CLOSED, METHOD_WEIGHTS, DimensionReport,
                       IntegralityError, closed_form_exceptions, main_theorem_total)
from .weights import count_weight_dim

METHOD_ALIASES = {
    "closed": METHOD_CLOSED, "closed_form": METHOD_CLOSED,
    "brute": METHOD_BRUTE, "brute_force": METHOD_BRUTE,
    "weights": METHOD_WEIGHTS, "weight_oracle": METHOD_WEIGHTS,
}

USAGE_ERROR = 2
MISMATCH_ERROR = 1
INVALID_OBJECT_ERROR = 3

# (error types, exit code, whether the `error:` line names the type), most
# specific first; the ValueError row takes InvalidParams, AlgebraFormatError,
# json.JSONDecodeError and the unreadable or unwritable files of
# `_load_json` and `_write_output`
ERROR_EXITS = (
    ((CharacteristicVectorViolation, NotALieAlgebra, NotACocycle), INVALID_OBJECT_ERROR, False),
    ((IntegralityError, DecompositionMismatch, IntegrabilityMismatch), MISMATCH_ERROR, True),
    ((KernelMismatch,), MISMATCH_ERROR, False),
    ((ValueError,), USAGE_ERROR, False),
)


def _parse_range(text: str) -> range:
    """Inclusive integer range: "4" or "1..8"."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        v = int(text)
        return range(v, v + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INT or LO..HI, got {text!r}") from None


def _parse_methods(text: str) -> list:
    methods = []
    for part in text.split(","):
        part = part.strip().lower()
        if part not in METHOD_ALIASES:
            raise argparse.ArgumentTypeError(
                f"unknown method {part!r} (choose from closed, brute, weights)")
        canon = METHOD_ALIASES[part]
        if canon not in methods:
            methods.append(canon)
    if not methods:
        raise argparse.ArgumentTypeError("at least one method required")
    return methods


def compute_report(n: int, m: int, p: int, method: str,
                   allow_x0_target: bool = False) -> DimensionReport:
    """One DimensionReport at (n, m, p) from the requested method."""
    if method == METHOD_CLOSED:
        return main_theorem_total(n, m, p)
    if method == METHOD_BRUTE:
        dims = block_dims(build_model(n, m, p), allow_x0_target=allow_x0_target)
    elif method == METHOD_WEIGHTS:
        dims = {block: count_weight_dim(block, n, m, p) for block in ALL_BLOCKS}
    else:
        raise ValueError(f"unknown method {method!r}")
    return DimensionReport(n=n, m=m, p=p, method=method,
                           **{block.name: d for block, d in dims.items()})


def _grid_point(args) -> tuple:
    """((n, m, p), {method: report}), or ((n, m, p), error text) on failure."""
    n, m, p, methods = args
    try:
        return (n, m, p), {method: compute_report(n, m, p, method) for method in methods}
    except (IntegralityError, DecompositionMismatch) as exc:
        return (n, m, p), f"{type(exc).__name__}: {exc}"


def _write_output(path, write) -> None:
    """write(stream) to stdout (path None or "-") or to the file at path.

    A file that cannot be written raises ValueError: a bad path is a usage
    error, not a mismatch.
    """
    if path in (None, "-"):
        write(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8") as stream:
            write(stream)
    except OSError as exc:
        raise ValueError(str(exc)) from None


def _write_json(doc, stream) -> None:
    json.dump(doc, stream, indent=2)
    stream.write("\n")


# -- dims ---------------------------------------------------------------


def cmd_dims(args) -> int:
    methods = list(dict.fromkeys(METHOD_ALIASES[m] for m in args.method or ["closed"]))
    if args.allow_x0_target and (set(methods) & {METHOD_CLOSED, METHOD_WEIGHTS}):
        raise ValueError("--allow-x0-target applies to --method brute only; the closed "
                         "forms and the weight oracle count the space with X0 excluded")
    for method in methods:
        report = compute_report(args.n, args.m, args.p, method,
                                allow_x0_target=args.allow_x0_target)
        print(json.dumps(report.to_json_dict()))
    return 0


# -- verify -------------------------------------------------------------


def run_verify(points, methods, jobs: int = 1):
    """Compute all methods on all grid points; returns (rows, mismatches).

    Rows are per (point, block) comparison dicts in deterministic
    (n, m, p, block) order; grid points are independent, so they can be
    computed concurrently and merged afterwards.  The worker count is
    bounded by the available cores and the number of points.  Where
    worker processes cannot start, or one is killed, the grid is computed
    serially with the same result.  A point whose computation fails
    contributes no rows and one mismatch {"n", "m", "p", "error"} naming it.

    Where `formulas.closed_form_exceptions` names a block's closed form
    as outside its domain, that value is printed but takes no part in
    `agree`, and brute force and the weight oracle are the arbiters.
    """
    tasks = [(n, m, p, methods) for (n, m, p) in points]
    jobs = min(jobs, os.cpu_count() or 1, len(tasks))
    results = None
    if jobs > 1:
        try:
            # imported here, so a serial run never loads multiprocessing
            from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = dict(pool.map(_grid_point, tasks, chunksize=4))
        except ImportError:  # a Python built without multiprocessing
            pass
        except (OSError, NotImplementedError, BrokenProcessPool):
            pass  # no subprocess support, no named semaphores, or a killed worker
    if results is None:
        results = dict(map(_grid_point, tasks))

    rows = []
    mismatches = []
    for point in sorted(results):
        reports = results[point]
        n, m, p = point
        if isinstance(reports, str):
            mismatches.append({"n": n, "m": m, "p": p, "error": reports})
            continue
        excused = closed_form_exceptions(n, m, p)
        for block in ALL_BLOCKS:
            values = {method: getattr(reports[method], block.name)
                      for method in methods}
            present = [v for method, v in values.items()
                       if not (method == METHOD_CLOSED and excused.get(block.name) == v)]
            agree = len(set(present)) <= 1
            row = {"n": n, "m": m, "p": p, "block": block.name}
            row.update({method: values[method] for method in methods})
            row["agree"] = agree
            rows.append(row)
            if not agree:
                mismatches.append(row)
    return rows, mismatches


def _emit_rows(rows, methods, fmt: str, stream) -> None:
    if fmt == "json":
        _write_json(rows, stream)
        return
    header = ["n", "m", "p", "block", *methods, "agree"]
    stream.write(",".join(header) + "\n")
    for row in rows:
        cells = [str(row[h]) for h in header[:-1]]
        cells.append("true" if row["agree"] else "false")
        stream.write(",".join(cells) + "\n")


def cmd_verify(args) -> int:
    points = [(n, m, p) for n in args.n for m in args.m for p in args.p]
    if not points:
        raise ValueError("empty parameter grid")
    check_params(min(args.n), min(args.m), min(args.p))
    if args.jobs < 0:
        raise ValueError(f"--jobs must be >= 0 (0: available cores), got {args.jobs}")
    jobs = args.jobs or (os.cpu_count() or 1)
    rows, mismatches = run_verify(points, args.methods, jobs=jobs)
    _write_output(args.output, lambda stream: _emit_rows(rows, args.methods, args.format, stream))
    for row in mismatches:
        if "error" in row:
            print(f"error at n={row['n']} m={row['m']} p={row['p']}: {row['error']}",
                  file=sys.stderr)
    blocks = [row for row in mismatches if "error" not in row]
    if blocks:
        print(f"{len(blocks)} mismatching block(s):", file=sys.stderr)
        for row in blocks:
            detail = " ".join(f"{m}={row[m]}" for m in args.methods)
            print(f"  n={row['n']} m={row['m']} p={row['p']} block={row['block']} {detail}",
                  file=sys.stderr)
    return MISMATCH_ERROR if mismatches else 0


# -- cocycles -----------------------------------------------------------


def cmd_cocycles(args) -> int:
    block = block_named(args.block)
    alg = build_model(args.n, args.m, args.p)
    solved = cocycle_basis(alg, block, allow_x0_target=args.allow_x0_target)
    _write_output(args.out, lambda stream: write_cocycle_basis(solved, stream))
    return 0


# -- deform -------------------------------------------------------------


def _load_json(path: str):
    """The document in the file at path; a file that cannot be read raises ValueError."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise ValueError(str(exc)) from None
    except RecursionError as exc:  # nested deeper than the parser's stack
        raise ValueError(f"{path}: {exc}") from None


def cmd_deform(args) -> int:
    alg = from_json_dict(_load_json(args.algebra))
    phi = cochain_from_json(alg, _load_json(args.cocycle))
    law = deform(alg, phi)
    integrable = is_integrable(law)
    filiform = filiform_check(law.result) if integrable else False
    verdict = {"integrable": integrable, "filiform": filiform}
    algebra_doc = law.result.to_json_dict()
    if args.out in (None, "-"):  # stdout carries one document: the verdict with the algebra
        verdict["algebra"] = algebra_doc
    else:
        _write_output(args.out, lambda stream: _write_json(algebra_doc, stream))
    print(json.dumps(verdict))
    return 0


# -- entry point --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorfil",
        description="Deformation dimensions of graded filiform Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point(command, **kind):  # the required --n, --m and --p
        for name in ("--n", "--m", "--p"):
            command.add_argument(name, required=True, **kind)

    dims = sub.add_parser("dims", help="block dimensions at one parameter point")
    add_point(dims, type=int)
    dims.add_argument("--method", action="append",
                      choices=sorted(METHOD_ALIASES), default=None,
                      help="closed | brute | weights (repeatable; default closed)")
    dims.add_argument("--allow-x0-target", action="store_true",
                      help="keep X0 as an admissible target of the A and E blocks")
    dims.set_defaults(func=cmd_dims)

    verify = sub.add_parser("verify", help="cross-check all methods over a grid")
    add_point(verify, type=_parse_range, metavar="LO..HI")
    verify.add_argument("--methods", type=_parse_methods,
                        default=[METHOD_BRUTE, METHOD_CLOSED, METHOD_WEIGHTS],
                        help="comma list: brute,closed,weights (default all)")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--output", default=None, help="report path (default stdout)")
    verify.add_argument("--jobs", type=int, default=0,
                        help="parallel grid workers; 0 (the default): available cores")
    verify.set_defaults(func=cmd_verify)

    cocycles = sub.add_parser("cocycles", help="export a kernel basis of one block")
    add_point(cocycles, type=int)
    cocycles.add_argument("--block", required=True, metavar="A..F")
    cocycles.add_argument("--out", default=None, help="output path (default stdout)")
    cocycles.add_argument("--allow-x0-target", action="store_true")
    cocycles.set_defaults(func=cmd_cocycles)

    deform_p = sub.add_parser("deform", help="apply a cocycle to an algebra file")
    deform_p.add_argument("--algebra", required=True, help="algebra JSON path")
    deform_p.add_argument("--cocycle", required=True, help="cochain JSON path")
    deform_p.add_argument("--out", default=None, help="deformed algebra path (default: stdout)")
    deform_p.set_defaults(func=cmd_deform)

    return parser


_PARSER = None  # build_parser(), built by the first main call of the process


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        try:
            code = args.func(args)
        except OSError:  # before ERROR_EXITS: io.UnsupportedOperation is a ValueError too
            raise
        except tuple(t for types, _, _ in ERROR_EXITS for t in types) as exc:
            code, named = next((code, named) for types, code, named in ERROR_EXITS
                               if isinstance(exc, types))
            print(f"error: {type(exc).__name__ + ': ' if named else ''}{exc}", file=sys.stderr)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except OSError as exc:
        # only standard output gets here: the reader went away (`| head`,
        # silent) or it cannot be written; devnull keeps the flush at exit quiet
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
