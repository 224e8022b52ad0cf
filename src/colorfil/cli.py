"""Command-line frontend: dimension sweeps, cross-checks, exports.

Exit codes form the scripting contract:

    0  success / all requested methods agree
    1  mathematical mismatch between methods (the falsification channel)
    2  usage or parse error (bad flags, malformed files, empty grid,
       parameters out of range)
    3  structurally valid but invalid input object (e.g. not a cocycle,
       or a base algebra that fails the Jacobi identity)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from json.encoder import encode_basestring_ascii

from .algebra import AlgebraFormatError, build_model, check_params, from_json_dict
from .cohomology import (ALL_BLOCKS, BlockKind, DecompositionMismatch, KernelMismatch,
                         block_dims, block_named, cochain_from_json, cocycle_basis_json)
from .deformation import (CharacteristicVectorViolation, IntegrabilityMismatch, NotACocycle,
                          NotALieAlgebra, deform, filiform_check, is_integrable)
from .formulas import (METHOD_BRUTE, METHOD_CLOSED, METHOD_WEIGHTS,
                       DimensionReport, IntegralityError, main_theorem_total)
from .weights import count_weight_dim

METHOD_ALIASES = {
    "closed": METHOD_CLOSED, "closed_form": METHOD_CLOSED,
    "brute": METHOD_BRUTE, "brute_force": METHOD_BRUTE,
    "weights": METHOD_WEIGHTS, "weight_oracle": METHOD_WEIGHTS,
}

USAGE_ERROR = 2
MISMATCH_ERROR = 1
INVALID_OBJECT_ERROR = 3


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


def _write_output(path, write) -> int:
    """write(stream) to stdout (path None or "-") or to the file at path.

    Returns 0, or USAGE_ERROR after a message when the file cannot be
    written: a bad path is a usage error, not a mismatch.
    """
    if path in (None, "-"):
        write(sys.stdout)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as stream:
            write(stream)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


def _write_json(doc, stream) -> None:
    json.dump(doc, stream, indent=2)
    stream.write("\n")


_TERM_HEAD = '      {{\n        "i": {},\n        "j": {},\n        "s": {},\n        "coeff": '


def _write_basis(doc, stream) -> None:
    """The bytes of _write_json(doc, stream) for a cocycle_basis_json document.

    json.dump with an indent runs the pure-Python encoder, one write per
    token; here the scalar header fields come first and "basis" last, as
    cocycle_basis_json orders them, and each vector is one string,
    written as soon as it is built.  A term's text up to its coefficient
    depends on (i, j, s) alone, so it is formatted once per column of
    the document and reused by every vector that holds that column.
    """
    header = "".join(f"  {json.dumps(key)}: {json.dumps(value)},\n"
                     for key, value in doc.items() if key != "basis")
    stream.write("{\n" + header + '  "basis": [')
    heads: dict = {}
    sep = "\n"
    for vector in doc["basis"]:
        parts = []
        for t in vector:
            key = t["i"], t["j"], t["s"]
            head = heads.get(key)
            if head is None:
                head = heads[key] = _TERM_HEAD.format(*key)
            parts.append(head + encode_basestring_ascii(t["coeff"]))
        terms = "\n      },\n".join(parts)
        stream.write(f"{sep}    [\n{terms}\n      }}\n    ]")
        sep = ",\n"
    stream.write("\n  ]\n}\n" if doc["basis"] else "]\n}\n")


# -- dims ---------------------------------------------------------------


def cmd_dims(args) -> int:
    methods = list(dict.fromkeys(METHOD_ALIASES[m] for m in args.method or ["closed"]))
    if args.allow_x0_target and (set(methods) & {METHOD_CLOSED, METHOD_WEIGHTS}):
        print("error: --allow-x0-target applies to --method brute only; the closed "
              "forms and the weight oracle count the space with X0 excluded",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        for method in methods:
            report = compute_report(args.n, args.m, args.p, method,
                                    allow_x0_target=args.allow_x0_target)
            print(json.dumps(report.to_json_dict()))
    except ValueError as exc:  # InvalidParams is one
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (IntegralityError, DecompositionMismatch) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MISMATCH_ERROR
    return 0


# -- verify -------------------------------------------------------------


def run_verify(points, methods, jobs: int = 1):
    """Compute all methods on all grid points; returns (rows, mismatches).

    Rows are per (point, block) comparison dicts in deterministic
    (n, m, p, block) order; grid points are independent, so they can be
    computed concurrently and merged afterwards.  The worker count is
    bounded by the available cores and the number of points.  A point
    whose computation fails contributes no rows and one mismatch
    {"n", "m", "p", "error"} naming the error.

    The closed forms equal the summand sum of the weight oracle at every
    point but one family (tests/test_formulas.py proves it): for block E
    at p = 0, n = m + 2 the closed form reads -1 where the block is 0.
    There a closed-form -1 is printed but takes no part in `agree`, and
    brute force and the weight oracle are the arbiters.
    """
    tasks = [(n, m, p, methods) for (n, m, p) in points]
    jobs = min(jobs, os.cpu_count() or 1, len(tasks))
    if jobs > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = dict(pool.map(_grid_point, tasks, chunksize=4))
        except (OSError, BrokenProcessPool):  # no subprocess support, or a killed worker
            results = dict(map(_grid_point, tasks))
    else:
        results = dict(map(_grid_point, tasks))

    rows = []
    mismatches = []
    for point in sorted(results):
        reports = results[point]
        n, m, p = point
        if isinstance(reports, str):
            mismatches.append({"n": n, "m": m, "p": p, "error": reports})
            continue
        excused = p == 0 and n == m + 2
        for block in ALL_BLOCKS:
            values = {method: getattr(reports[method], block.name)
                      for method in methods}
            present = [v for method, v in values.items()
                       if not (excused and block is BlockKind.E
                               and method == METHOD_CLOSED and v == -1)]
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
        print("error: empty parameter grid", file=sys.stderr)
        return USAGE_ERROR
    try:
        check_params(min(args.n), min(args.m), min(args.p))
    except ValueError as exc:  # InvalidParams is one
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.jobs < 0:
        print(f"error: --jobs must be >= 0 (0: available cores), got {args.jobs}",
              file=sys.stderr)
        return USAGE_ERROR
    jobs = args.jobs or (os.cpu_count() or 1)
    rows, mismatches = run_verify(points, args.methods, jobs=jobs)
    code = _write_output(args.output,
                         lambda stream: _emit_rows(rows, args.methods, args.format, stream))
    if code:
        return code
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
    try:
        block = block_named(args.block)
        alg = build_model(args.n, args.m, args.p)
    except ValueError as exc:  # InvalidParams is one
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        doc = cocycle_basis_json(alg, block, allow_x0_target=args.allow_x0_target)
    except KernelMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH_ERROR
    return _write_output(args.out, lambda stream: _write_basis(doc, stream))


# -- deform -------------------------------------------------------------


def _load_json(path: str):
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except RecursionError as exc:  # nested deeper than the parser's stack
            raise ValueError(f"{path}: {exc}") from None


def _cochain_from_document(alg, doc):
    """Accept a single-cochain document or a one-vector basis export."""
    if isinstance(doc, dict) and "terms" in doc:
        return cochain_from_json(alg, doc)
    if isinstance(doc, dict) and "basis" in doc:
        for field in ("block", "n", "m", "p"):
            if field not in doc:
                raise ValueError(f"basis export missing field {field!r}")
        block = block_named(doc["block"])
        vectors = doc["basis"]
        if not (isinstance(vectors, list) and all(isinstance(v, list) for v in vectors)):
            raise ValueError("'basis' must be a list of vectors, each a list of terms")
        if len(vectors) != 1:
            raise ValueError(
                f"basis export holds {len(vectors)} vectors; deform needs exactly one "
                "(re-export or convert to a 'terms' document)")
        if not all(isinstance(item, dict) for item in vectors[0]):
            raise ValueError("each basis term must be an object")
        terms = [{"block": block.name, **item} for item in vectors[0]]
        return cochain_from_json(alg, {"n": doc["n"], "m": doc["m"], "p": doc["p"],
                                       "terms": terms})
    raise ValueError("cochain document must carry 'terms' or 'basis'")


def cmd_deform(args) -> int:
    try:
        alg = from_json_dict(_load_json(args.algebra))
        phi = _cochain_from_document(alg, _load_json(args.cocycle))
    except (OSError, json.JSONDecodeError, AlgebraFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        law = deform(alg, phi)
        integrable = is_integrable(law)
    except (CharacteristicVectorViolation, NotALieAlgebra, NotACocycle) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID_OBJECT_ERROR
    except IntegrabilityMismatch as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MISMATCH_ERROR
    filiform = filiform_check(law.result) if integrable else False
    verdict = {"integrable": integrable, "filiform": filiform}
    algebra_doc = law.result.to_json_dict()
    if args.out in (None, "-"):  # stdout carries one document: the verdict with the algebra
        verdict["algebra"] = algebra_doc
    else:
        code = _write_output(args.out, lambda stream: _write_json(algebra_doc, stream))
        if code:
            return code
    print(json.dumps(verdict))
    return 0


# -- entry point --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorfil",
        description="Deformation dimensions of graded filiform Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    dims = sub.add_parser("dims", help="block dimensions at one parameter point")
    dims.add_argument("--n", type=int, required=True)
    dims.add_argument("--m", type=int, required=True)
    dims.add_argument("--p", type=int, required=True)
    dims.add_argument("--method", action="append",
                      choices=sorted(METHOD_ALIASES), default=None,
                      help="closed | brute | weights (repeatable; default closed)")
    dims.add_argument("--allow-x0-target", action="store_true",
                      help="keep X0 as an admissible target of the A and E blocks")
    dims.set_defaults(func=cmd_dims)

    verify = sub.add_parser("verify", help="cross-check all methods over a grid")
    verify.add_argument("--n", type=_parse_range, required=True, metavar="LO..HI")
    verify.add_argument("--m", type=_parse_range, required=True, metavar="LO..HI")
    verify.add_argument("--p", type=_parse_range, required=True, metavar="LO..HI")
    verify.add_argument("--methods", type=_parse_methods,
                        default=[METHOD_BRUTE, METHOD_CLOSED, METHOD_WEIGHTS],
                        help="comma list: brute,closed,weights (default all)")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--output", default=None, help="report path (default stdout)")
    verify.add_argument("--jobs", type=int, default=0,
                        help="parallel grid workers; 0 (the default): available cores")
    verify.set_defaults(func=cmd_verify)

    cocycles = sub.add_parser("cocycles", help="export a kernel basis of one block")
    cocycles.add_argument("--n", type=int, required=True)
    cocycles.add_argument("--m", type=int, required=True)
    cocycles.add_argument("--p", type=int, required=True)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except OSError as exc:
        # the reader went away (`| head`, silent) or stdout cannot be written;
        # devnull keeps the flush at exit quiet
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
