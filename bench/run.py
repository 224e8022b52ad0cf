"""colorfil benchmark runner: one workload, one seed, one process.

    python3 bench/run.py --workload grid-verify --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; colorfil is imported from its
``src/`` directory.  The runner repeats passes over the workload's
operations (see ``workloads.py``) for about ``--seconds`` seconds, one
caller at a time, checks every output, and prints each metric with its
unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Times are reported at a fixed reference speed.  The machine's speed
changes by up to 2x from one minute to the next when it is shared, so
a fixed computation (``probe.py``) is timed between every two
operations, and each operation's time is scaled by REFERENCE_PROBE_S
over the probe times around it.  The raw times are printed and
recorded as well.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced passes alternate; the traced passes
give the per-layer metrics (see ``spans.py``) and the ratio of the two
gives ``trace.overhead_frac``.

Files go to ``.bench_out/`` in the checkout: the spans of traced runs,
one result record per run, and the exact values (output digests and
counts) of each seed, which later runs of the same seed and source
must repeat; the record is keyed on the digest of colorfil's source and
of the benchmark's own files.  Exit status is 0 whenever a result is
printed, also when checks fail; it is 2 when the checkout holds no
colorfil source.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7

# Probe time at the reference speed: the faster of the two speeds seen on
# a 2-vCPU Intel Xeon VM with Python 3.11.  Reported times are scaled to it.
REFERENCE_PROBE_S = 0.38e-3

# Setup as a fresh interpreter pays it: start, import colorfil, make the inputs.
SETUP_CODE = """import sys
sys.path[:0] = [{src!r}, {bench!r}]
import colorfil, workloads
workloads.make({name!r}, {seed!r}, {workdir!r})
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="0: end-to-end metrics; 1: per-layer metrics (traced passes)")
    return parser.parse_args(argv)


def quantile(values, q: float) -> float:
    """Inclusive-method quantile; a single sample is its own quantile."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def source_digest(*dirs: Path) -> str:
    """SHA-256 over the Python files of the given directories."""
    h = hashlib.sha256()
    for directory in dirs:
        for path in sorted(directory.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, src_sha) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        # The ceiling keeps git from reading a repository above the checkout.
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu, "colorfil_commit": commit,
            "colorfil_src_sha256": src_sha}


def measure_setup(args, workdir) -> list:
    """(raw seconds, scaled seconds) of each fresh-interpreter setup."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=args.workload,
                             seed=args.seed, workdir=str(workdir))
    times = []
    after = probe.sample()
    for _ in range(SETUP_REPEATS):
        before = after
        start = time.perf_counter()
        # A blocking wait: with a timeout, Popen.wait polls in steps of
        # up to 50 ms, which would quantise the measurement.
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
        raw = time.perf_counter() - start
        after = probe.sample()
        times.append((raw, raw * 2 * REFERENCE_PROBE_S / (before + after)))
    return times


class GcClock:
    """Collector pauses and collections, from ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def take(self) -> tuple:
        out = (self.pause_s, self.collections)
        self.pause_s, self.collections = 0.0, 0
        return out


class Run:
    """Passes of one workload, with failure accounting."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.ops: list = []     # (kind, raw seconds, probe before, probe after) this pass
        self.tracer = None      # set while a pass is traced
        self._probe = None      # the probe taken after the last operation

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def op(self, kind, fn, *args, **kwargs):
        """Time one operation; an exception counts as a failed operation."""
        self.attempted += 1
        before = self._probe if self._probe is not None else probe.sample()
        if self.tracer is not None:
            fn = self.tracer.wrap(fn, "bench." + kind)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{kind} raised")
            return None
        finally:
            raw = time.perf_counter() - start
            self._probe = probe.sample()
            self.ops.append((kind, raw, before, self._probe))

    def run_pass(self):
        """(outputs or None, operations) of one pass."""
        self.ops = []
        self._probe = None
        try:
            outputs = self.workload.run_pass(self.op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.fail("pass aborted")
            outputs = None
        return outputs, self.ops

    def check(self, outputs, full: bool):
        """Count each check; returns the pass digest (None if unchecked)."""
        digest = None
        try:
            for what, result in self.workload.check(outputs, full):
                if what == "digest":
                    digest = result
                    continue
                self.attempted += 1
                if not result:
                    self.fail(what)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.fail("check raised")
        return digest

    def expect_equal(self, what: str, first, value) -> None:
        self.attempted += 1
        if value != first:
            self.fail(f"{what} differs: {first!r} then {value!r}")


def summarize_pass(ops, traced: bool) -> dict:
    """Raw and scaled times of one pass's operations."""
    scaled = [(kind, raw * 2 * REFERENCE_PROBE_S / (before + after))
              for kind, raw, before, after in ops]
    probes = [p for _, _, before, after in ops for p in (before, after)]
    return {"traced": traced, "ops": scaled,
            "wall_s": sum(t for _, t in scaled),
            "raw_wall_s": sum(raw for _, raw, _, _ in ops),
            "speed": REFERENCE_PROBE_S / statistics.median(probes) if probes else 1.0}


def end_to_end(wl, untraced, setup) -> dict:
    """(value, unit) of every end-to-end metric, at the reference speed."""
    busy = sum(p["wall_s"] for p in untraced)
    delivering = sum(t for p in untraced for kind, t in p["ops"] if kind == wl.delivering)
    if wl.point_per_op:
        latencies = [t for p in untraced for _, t in p["ops"]]
    else:
        latencies = [p["wall_s"] for p in untraced]
    return {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "points_per_s": (len(wl.points) * len(untraced) / busy, "1/s"),
        "point_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "point_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
        "cocycles_per_s": (wl.cocycles * len(untraced) / delivering, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced, untraced) -> dict:
    """(value, unit) of every per-layer metric; times at the reference speed."""
    metrics = {}
    for name in traced[0]["layers"]:
        if name == "trace.spans":
            metrics[name] = (statistics.median(p["layers"][name] for p in traced), "count")
        else:
            metrics[name] = (statistics.median(p["layers"][name] * p["speed"] for p in traced),
                             "s")
    for name, value in traced[0]["counts"].items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    metrics["gc.pause_s"] = (statistics.median(p["gc_pause_s"] * p["speed"] for p in untraced),
                             "s")
    metrics["gc.collections"] = (statistics.median(p["gc_collections"] for p in untraced),
                                 "count")
    metrics["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                      / statistics.median(p["wall_s"] for p in untraced) - 1,
                                      "frac")
    return metrics


def repeat_check(run, args, exact: dict) -> None:
    """Exact values must equal those of earlier runs of this seed and source.

    The record is keyed on colorfil's source and the benchmark's own, so
    a change to either starts a new record.
    """
    key = source_digest(SRC / "colorfil", BENCH)[:16]
    path = OUT / "exact" / f"{args.workload}-seed{args.seed}-{key}.json"
    earlier = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for key, value in exact.items():
        if key in earlier:
            run.expect_equal(f"{key} against an earlier run", earlier[key], value)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**exact, **earlier}, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "colorfil" / "__init__.py").is_file():
        print(f"error: no colorfil source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    src_sha = source_digest(SRC / "colorfil")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(args, workdir)
        wl = workloads.make(args.workload, args.seed, str(workdir))
        run, passes, tracer = measure(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = per_layer(traced, untraced)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(wl, untraced, setup)
    failed_frac = run.failed / run.attempted

    raw = {"wall_s": statistics.median(p["raw_wall_s"] for p in untraced),
           "setup_s": statistics.median(r for r, _ in setup) if setup else None,
           "speed": statistics.median(p["speed"] for p in passes)}
    samples = {"passes": len(untraced), "traced_passes": len(traced),
               "pass_wall_s": [p["wall_s"] for p in passes],
               "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
               "pass_speed": [p["speed"] for p in passes],
               "point_latency_samples": (len(untraced) * len(wl.points) if wl.point_per_op
                                         else len(untraced)),
               "setup_s": setup}
    env = environment(args, src_sha)
    record = {"environment": env, "samples": samples, "raw": raw,
              "failed_frac": failed_frac, "failures": run.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for what in run.failures:
        print(f"FAILED: {what}")
    inputs = f"point {wl.points[0]}" if len(wl.points) == 1 else f"{len(wl.points)} points"
    print(f"# {args.workload} seed {args.seed}: {inputs}; {samples['passes']} untraced and "
          f"{samples['traced_passes']} traced passes; "
          f"{samples['point_latency_samples']} point-latency samples")
    print("# environment " + json.dumps(env))
    print(f"# raw (unscaled) wall_s {raw['wall_s']:.6g} s; machine speed "
          f"{raw['speed']:.4g} of the reference")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed_frac:.6g} frac ({run.failed} of {run.attempted})")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": record["metrics"]}))
    return 0


def measure(wl, args):
    """Alternate passes until the time is up; returns (run, passes, tracer)."""
    import spans

    run = Run(wl)
    tracer = spans.Tracer()
    clock = GcClock()
    passes: list = []
    first_digest = first_counts = None
    start = time.perf_counter()
    min_passes = 2 if args.trace else 1
    gc.callbacks.append(clock)
    try:
        while True:
            elapsed = time.perf_counter() - start
            last = passes[-1]["elapsed"] if passes else 0.0
            # A pass starts only if one as long as the last still ends in time.
            if len(passes) >= min_passes and elapsed + last > args.seconds:
                break
            traced = bool(args.trace) and len(passes) % 2 == 1
            pass_start = time.perf_counter()
            clock.take()
            if traced:
                tracer.install()
                run.tracer = tracer
            try:
                outputs, ops = run.run_pass()
            finally:
                tracer.uninstall()
                run.tracer = None
            entry = summarize_pass(ops, traced)
            entry["gc_pause_s"], entry["gc_collections"] = clock.take()
            if traced:
                entry["layers"], entry["counts"] = tracer.take_pass()
                if first_counts is None:
                    first_counts = entry["counts"]
                else:
                    for key, value in entry["counts"].items():
                        run.expect_equal(key, first_counts[key], value)
            if outputs is not None:
                digest = run.check(outputs, full=not passes)
                if first_digest is None:
                    first_digest = digest
                else:
                    run.expect_equal("output digest", first_digest, digest)
            entry["elapsed"] = time.perf_counter() - pass_start
            passes.append(entry)
    finally:
        gc.callbacks.remove(clock)

    exact = {"digest": first_digest, **(first_counts or {})}
    repeat_check(run, args, exact)
    return run, passes, tracer


if __name__ == "__main__":
    sys.exit(main())
