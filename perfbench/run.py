#!/usr/bin/env python3
"""rkstab benchmark: runs one workload and prints one JSON result line.

    python3 perfbench/run.py --workload certify-p2-128 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --summary --seed 1
    python3 perfbench/selftest.py

The package is imported from the src/ directory of the checkout that holds
this file, never from an installed copy; without it the run exits with code 2
and prints no result.  Each run writes a result file (with the environment)
and, when traced, a span file under .perfbench_out/ in the checkout.  The last
line of standard output is {"correct", "attempted", "failed", "metrics"}; the
metric names and units come from BENCHMARK.json: its end_to_end metrics with
--trace 0, its per_layer metrics with --trace 1.  See perfbench/README.md.
"""

import os

# One BLAS thread, fixed before numpy loads: the sweep's two pool workers are
# then the only parallelism, within the two cores of the reference machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import ctypes
import json
import math
import numbers
import platform
import resource
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 1

# Relative tolerance on committed result values.  Reassociated sums move the
# bounds by ~1e-15 and another eigensolver meeting the same 1e-10 residual
# moves lambda_max by far less than 1e-9; a changed formula moves them more.
RTOL = 1e-9


Sample = collections.namedtuple("Sample", "result seconds cal")


class Calibration:
    """Fixed kernels, independent of rkstab, that track the machine's speed.

    The reference machine's speed drifts by up to 60% over minutes while
    other tenants load it; wall time and CPU time drift together, and code
    of different kinds drifts differently.  Each gated time is divided by
    the time of a kernel of the same kind as the workload's own work,
    measured right next to it:

    * "interpreter": interpreted loops, many small numpy calls and sparse
      products, like the per-element geometry, assembly and RK loops;
    * "dense": matrix-vector products with a tall dense block and
      tridiagonal eigensolves, like the Lanczos iteration.

    Each kernel takes about 0.25 s, long enough that its own sub-second
    jitter mostly averages out.  Given several kinds, the kernels run at the
    same time, one thread each, as the work of a two-worker sweep does.
    """

    KINDS = ("interpreter", "dense")

    def __init__(self, kinds):
        import numpy as np
        import scipy.linalg as sla
        import scipy.sparse as sp
        unknown = set(kinds) - set(self.KINDS)
        if unknown:
            raise ValueError(f"unknown calibration kinds {sorted(unknown)}")
        self.kinds = tuple(kinds)
        rng = np.random.default_rng(20261017)
        self._np, self._sla = np, sla
        self._mats = rng.standard_normal((10000, 2, 2)) + 3.0 * np.eye(2)
        n = 20000
        self._matrix = sp.csr_array(
            sp.random_array((n, n), density=6e-4, format="csr", rng=rng)
            + sp.eye_array(n, format="csr"))
        self._x = rng.standard_normal(n)
        self._block = rng.standard_normal((750, 400))
        self._w = rng.standard_normal(750)
        self._alphas = rng.uniform(1.0, 2.0, 400)
        self._betas = rng.uniform(0.1, 0.5, 399)

    def _interpreter(self) -> None:
        np = self._np
        total = 0
        for i in range(1250000):
            total += i * i
        for mat in self._mats:
            np.linalg.det(mat)
            np.linalg.inv(mat)
        for _ in range(200):
            self._matrix @ self._x

    def _dense(self) -> None:
        for _ in range(1200):
            self._block @ (self._block.T @ self._w)
        for k in range(20, 400, 20):
            self._sla.eigh_tridiagonal(self._alphas[:k], self._betas[:k - 1])

    def __call__(self) -> float:
        parts = {"interpreter": self._interpreter, "dense": self._dense}
        threads = [threading.Thread(target=parts[kind]) for kind in self.kinds]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start


class Harness:
    """Times operations, counts attempts and failures, checks result values."""

    def __init__(self, seed, seconds, tracer, reference, record, out_dir, calibration):
        self.out_dir = out_dir
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.reference = reference  # committed values, or None when they do not apply
        self.record = record        # dict that collects values, or None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.values: dict = {}
        self._label = None
        self._ok = True
        self.calibration = calibration
        self._cal_before = None

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def run(self, request, label, fn, verify=None, traced=True, calibrated=False):
        """Time fn() as one operation; returns Sample(result or None, seconds, cal).

        An exception from fn or verify, or a failed check inside verify,
        marks the operation failed.  verify runs after the clock stops.  A
        calibrated operation is followed by the calibration kernel, and cal
        is the mean of the kernel's times just before and just after it.
        """
        self.attempted += 1
        self._label, self._ok = label, True
        if calibrated and self._cal_before is None:
            self._cal_before = self.calibration()
        result = None
        scope = (self.tracer.active(request, label) if self.tracing and traced
                 else contextlib.nullcontext())
        with scope:
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:
                self.fail(f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        cal = None
        if calibrated:
            after = self.calibration()
            cal, self._cal_before = 0.5 * (self._cal_before + after), after
        if self._ok and verify is not None:
            try:
                verify(result)
            except Exception as exc:
                self.fail(f"check raised {type(exc).__name__}: {exc}")
        if not self._ok:
            self.failed += 1
        return Sample(result, seconds, cal)

    def fail(self, message: str) -> None:
        self._ok = False
        if len(self.failures) < 50:
            self.failures.append(f"{self._label}: {message}")

    def check(self, condition, message: str) -> None:
        if not condition:
            self.fail(message)

    def expect(self, name: str, value) -> None:
        """Compare a result value with its committed default-seed value."""
        key = f"{self._label}.{name}"
        if isinstance(value, (bool, type(None))):
            pass
        elif isinstance(value, numbers.Integral):
            value = int(value)
        elif isinstance(value, numbers.Real):
            value = float(value)
        self.values[key] = value
        if self.record is not None:
            self.record[key] = value
        if self.reference is None:
            return
        if key not in self.reference:
            self.fail(f"no committed value for {key}")
            return
        want = self.reference[key]
        if isinstance(want, float) and isinstance(value, float):
            ok = math.isclose(value, want, rel_tol=RTOL, abs_tol=0.0)
        else:
            ok = value == want
        self.check(ok, f"{key} = {value!r}, committed {want!r}")

    def loop(self, body, min_rounds=2):
        """Run rounds of body(request, traced) until the time is up.

        With tracing on, rounds alternate traced and untraced so that the
        untraced ones measure the tracing overhead on the same machine state.
        """
        rounds = 0
        start = time.perf_counter()
        while rounds < min_rounds or time.perf_counter() - start < self.seconds:
            traced = not self.tracing or rounds % 2 == 0
            body(f"round#{rounds}" if traced else f"control#{rounds}", traced)
            rounds += 1
        return rounds


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> list[dict]:
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = []
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return caches
    for entry in entries:
        if not entry.startswith("index"):
            continue
        info = {}
        for field in ("level", "type", "size"):
            try:
                with open(os.path.join(base, entry, field)) as handle:
                    info[field] = handle.read().strip()
            except OSError:
                info[field] = None
        caches.append(info)
    return caches


def _blas() -> dict:
    import numpy
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except Exception:
        pass
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(systems: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "systems": systems,
    }


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_reference(path, size, workload, seeded, seed):
    """Committed values that apply to this run, or None."""
    with open(path) as handle:
        expected = json.load(handle)
    if seeded and seed != expected["default_seed"]:
        return None
    return expected.get(size, {}).get(workload)


def record_reference(path, size, workload, values) -> None:
    with open(path) as handle:
        expected = json.load(handle)
    expected.setdefault(size, {})[workload] = dict(sorted(values.items()))
    with open(path, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_workload(args, workloads) -> int:
    from spans import LAYER_SPANS, Tracer

    spec = workloads.WORKLOADS[args.workload]
    bench = load_benchmark()
    if args.record and args.seed != DEFAULT_SEED and spec.seeded:
        print("perfbench: --record needs the default seed", file=sys.stderr)
        return 2
    record = {} if args.record else None
    reference = None if args.record else load_reference(
        args.expected, args.size, args.workload, spec.seeded, args.seed)
    tracer = Tracer(args.workload) if args.trace else None
    harness = Harness(args.seed, args.seconds, tracer, reference, record, OUT,
                      Calibration(spec.calibration))

    out = spec.run(harness, workloads.SIZES[args.size])

    if args.record:
        record_reference(args.expected, args.size, args.workload, record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = dict(out["named"], result_cal=out["e2e"]["result_cal"], peak_rss_mb=peak_rss_mb,
                 failed_frac=harness.failed / harness.attempted)
    e2e = dict(out["e2e"], peak_rss_mb=peak_rss_mb)
    layer = dict(out.get("layer", {}))
    omitted = dict(out.get("omitted", {}))
    if tracer is not None:
        for metric in bench["per_layer"]:
            span = LAYER_SPANS.get(metric["name"])
            if span is not None:
                layer[metric["name"]] = tracer.layer_seconds(span)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        source = layer if args.trace else e2e
        if name in source:
            value = source[name]
        elif args.trace:
            value = 0.0  # layer or ratio this workload does not exercise
            omitted.setdefault(name, "not exercised by this workload")
        else:
            print(f"perfbench: workload produced no {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": metric["unit"]}

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}_{args.size}_seed{args.seed}_trace{int(args.trace)}"
    if tracer is not None:
        tracer.write(os.path.join(OUT, stem + "_spans.jsonl"))
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    details = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "reference_checked": reference is not None,
        "named": named, "samples": out.get("samples", {}),
        "omitted": omitted, "failures": harness.failures,
        "values": harness.values,
        "environment": environment(out.get("systems", {})),
        "result": result,
    }
    if tracer is not None:
        details["missing_targets"] = tracer.missing
        details["calls"] = tracer.call_counts()
    with open(os.path.join(OUT, stem + ".json"), "w") as handle:
        json.dump(details, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0


NAMED = [  # what a user of rkstab waits for; see perfbench/README.md
    ("setup_s", "s"), ("certify_s", "s"), ("eigensolve_s", "s"),
    ("rk_steps_per_s", "steps/s"), ("sweep_s", "s"), ("result_cal", "ratio"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
]


def summary(args, workloads) -> int:
    """Run every workload untraced and print each named metric with its unit."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--size", args.size, "--expected", args.expected]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        path = os.path.join(OUT, f"{name}_{args.size}_seed{args.seed}_trace0.json")
        with open(path) as handle:
            details = json.load(handle)
        for metric, unit in NAMED:
            value = details["named"].get(metric)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:16s} {metric:16s} {shown:>12s} {unit}")
        for failure in details["failures"]:
            print(f"{name:16s} FAILED {failure}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the self-test")
    parser.add_argument("--expected", default=EXPECTED,
                        help="committed result values (the self-test passes a corrupted copy)")
    parser.add_argument("--record", action="store_true",
                        help="write this run's result values as the committed ones")
    parser.add_argument("--summary", action="store_true",
                        help="run every workload and print every named metric")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rkstab", "__init__.py")):
        print(f"perfbench: no rkstab package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    sys.path.insert(0, SRC)
    import workloads
    if args.summary:
        return summary(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
