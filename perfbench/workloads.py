"""The benchmark's four workloads, each a closed loop in one process.

Every workload builds its systems through the public API (setup), then
repeats its operation in rounds until the run's time is up.  Each operation
is checked: bound inequalities wherever lambda_max is known, stability and
the growth certificate of RK runs, CLI exit codes and sweep.csv bytes, and
the committed default-seed values in expected.json.  Why each workload was
chosen is recorded in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable

import numpy as np
import scipy.sparse as sp

import rkstab as rk
from rkstab import cli

SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
ANGLE, EIGENVALUES = math.pi / 6, (1.0, 100.0)
SCHEME = "classic_rk4"
# Relative slack on bound inequalities, the same as the CLI's sandwich check.
SLACK = 1e-9

SIZES = {
    "full": {"certify_n": 128, "eigen_n2d": 48, "eigen_n1d": 250, "rk_n": 128,
             "rk_steps": 1000, "sweep_n": 32,
             "sweep_values": "1,3,10,30,100,300,1000,3000"},
    "smoke": {"certify_n": 8, "eigen_n2d": 6, "eigen_n1d": 10, "rk_n": 8,
              "rk_steps": 50, "sweep_n": 4, "sweep_values": "1,10"},
}

REPORT_VALUES = ("n_dofs", "kappa_surrogate", "lower_diag_ratio", "upper_diag_ratio",
                 "upper_geometric", "upper_zhudu", "m_matrix_refinement_applied",
                 "upper_diag_ratio_refined")


@dataclass
class Case:
    mesh: object
    elem: object
    diffusion: object
    policy: object
    system: object


def build_case(spec, order, diffusion, policy) -> Case:
    mesh = rk.generate_mesh(spec)
    elem = rk.build_reference_element(mesh.dimension, order)
    system = rk.assemble_system(mesh, elem, diffusion, policy)
    return Case(mesh, elem, diffusion, policy, system)


def rotated():
    return rk.DiffusionField.rotated_anisotropic(ANGLE, EIGENVALUES)


def perturbed(n, seed):
    return rk.MeshSpec(kind="random_perturbed", nx=n, ny=n, amplitude=0.2 / n, seed=seed)


def certify(case: Case, scheme):
    """The certified step: bounds without the eigensolve, then both steps."""
    report = rk.compute_bound_report(case.mesh, case.elem, case.diffusion, case.policy,
                                     dof_cap=0, system=case.system)
    return (report, rk.stable_timestep(scheme, "diag_ratio", report),
            rk.stable_timestep(scheme, "geometric", report))


def check_system(h, tag, case: Case) -> None:
    system = case.system
    h.check(system.n_dofs > 0, f"{tag}: empty system")
    h.expect(f"{tag}.n_dofs", system.n_dofs)
    h.expect(f"{tag}.nnz_stiffness", system.stiffness.nnz)
    h.expect(f"{tag}.nnz_surrogate", system.surrogate_mass.nnz)


def check_certify(h, result, scheme) -> None:
    report, tau_diag, tau_geo = result
    lower, upper, geo = report.lower_diag_ratio, report.upper_diag_ratio, report.upper_geometric
    h.check(report.lambda_max_exact is None, "eigensolve ran although dof_cap=0")
    h.check(all(math.isfinite(v) and v > 0 for v in (lower, upper, geo, tau_diag, tau_geo)),
            "nonpositive or nonfinite bound or step")
    h.check(lower <= upper * (1 + SLACK), f"lower {lower!r} above upper {upper!r}")
    h.check(lower <= geo * (1 + SLACK), f"geometric bound {geo!r} below lower {lower!r}")
    boundary = scheme.real_stability_boundary
    h.check(math.isclose(tau_diag * upper, boundary, rel_tol=1e-12), "tau_diag_ratio mismatch")
    h.check(math.isclose(tau_geo * geo, boundary, rel_tol=1e-12), "tau_geometric mismatch")
    for name in REPORT_VALUES:
        h.expect(name, getattr(report, name))
    h.expect("tau_diag_ratio", tau_diag)
    h.expect("tau_geometric", tau_geo)


def check_sandwich(h, lam, report) -> None:
    h.check(math.isfinite(lam) and lam > 0, f"lambda_max {lam!r}")
    h.check(report.lower_diag_ratio <= lam * (1 + SLACK),
            f"lambda_max {lam!r} below lower_diag_ratio {report.lower_diag_ratio!r}")
    h.check(lam <= report.upper_diag_ratio * (1 + SLACK),
            f"lambda_max {lam!r} above upper_diag_ratio {report.upper_diag_ratio!r}")
    h.check(lam <= report.upper_geometric * (1 + SLACK),
            f"lambda_max {lam!r} above upper_geometric {report.upper_geometric!r}")


class _CountingCSR(sp.csr_array):
    """CSR stiffness that counts operator applications (A @ x) from outside."""

    applications = 0

    def __matmul__(self, other):
        self.applications += 1
        return super().__matmul__(other)


def count_eigen_ops(case: Case, lam: float) -> int | None:
    """Operator applications of one eigensolve, or None if counting changed lambda."""
    stiffness = _CountingCSR(case.system.stiffness)
    counted = rk.lambda_max_generalized(stiffness, case.system.surrogate_mass)
    return stiffness.applications if counted == lam else None


def run_setups(h, build: Callable, verify: Callable):
    """Timed builds, at least SETUP_REPEATS and SETUP_SECONDS of them.

    Returns the last good state and the times; short set-ups repeat more
    often so that their median is steadier.
    """
    state, times = None, []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        sample = h.run(f"setup#{len(times)}", "setup", build, verify)
        times.append(sample.seconds)
        state = sample.result if sample.result is not None else state
    if state is None:
        raise RuntimeError("every setup failed; see the result file")
    return state, times


class Rounds:
    """Seconds and calibrated ratios of the timed rounds, traced or not."""

    def __init__(self):
        self.seconds = {"round": [], "control": []}
        self.cal = {"round": [], "control": []}

    def add(self, traced: bool, seconds: float, cal: float) -> None:
        kind = "round" if traced else "control"
        self.seconds[kind].append(seconds)
        self.cal[kind].append(seconds / cal)

    def overhead(self) -> float:
        """Tracing overhead as a share of the untraced ratio (trace runs only)."""
        traced, control = self.cal["round"], self.cal["control"]
        return median(traced) / median(control) - 1.0 if traced and control else 0.0

    def samples(self, name: str) -> dict:
        return {f"{name}_s": self.seconds, f"{name}_cal": self.cal}


def system_counts(cases: dict) -> tuple[dict, dict]:
    systems = {
        tag: {"n_dofs": c.system.n_dofs, "nnz": int(c.system.stiffness.nnz),
              "n_elements": int(c.mesh.n_elements),
              "mesh_n_dofs": int(c.system.numbering.n_dofs)}
        for tag, c in cases.items()
    }
    layer = {
        "mesh.n_elements": sum(s["n_elements"] for s in systems.values()),
        "mesh.n_dofs": sum(s["mesh_n_dofs"] for s in systems.values()),
        "assembly.nnz_stiffness": sum(s["nnz"] for s in systems.values()),
    }
    return systems, layer


# --------------------------------------------------------------------------
# certify-p2-128


def run_certify(h, size) -> dict:
    spec = perturbed(size["certify_n"], h.seed)
    scheme = rk.rk_scheme(SCHEME)
    case, setup_times = run_setups(
        h, lambda: build_case(spec, 2, rotated(), rk.HRZ_DIAGONAL),
        lambda c: check_system(h, "system", c))
    rounds = Rounds()

    def body(request, traced):
        sample = h.run(request, "certify", lambda: certify(case, scheme),
                       lambda r: check_certify(h, r, scheme), traced, calibrated=True)
        rounds.add(traced, sample.seconds, sample.cal)

    h.loop(body, min_rounds=3)
    systems, layer = system_counts({"2d-p2-hrz": case})
    layer["trace.overhead_frac"] = rounds.overhead()
    setup_s = median(setup_times)
    return {
        "e2e": {"setup_s": setup_s, "result_cal": median(rounds.cal["round"])},
        "named": {"setup_s": setup_s, "certify_s": median(rounds.seconds["round"])},
        "layer": layer, "systems": systems,
        "samples": {"setup_s": setup_times, **rounds.samples("certify")},
    }


# --------------------------------------------------------------------------
# eigen-mixed

def eigen_cases(size) -> dict:
    n2d, n1d = size["eigen_n2d"], size["eigen_n1d"]
    identity_1d = rk.DiffusionField.constant(1.0, d=1)
    structured = rk.MeshSpec(kind="structured_triangular", nx=n2d, ny=n2d)
    interval = rk.MeshSpec(kind="uniform_interval", n=n1d)
    return {
        "2d-p2-hrz": build_case(structured, 2, rotated(), rk.HRZ_DIAGONAL),
        "1d-p3-hrz": build_case(interval, 3, identity_1d, rk.HRZ_DIAGONAL),
        "1d-p3-consistent": build_case(interval, 3, identity_1d, rk.CONSISTENT),
    }


def run_eigen(h, size) -> dict:
    scheme = rk.rk_scheme(SCHEME)

    def verify_setup(cases):
        for tag, case in cases.items():
            check_system(h, tag, case)

    cases, setup_times = run_setups(h, lambda: eigen_cases(size), verify_setup)
    certify_t = {tag: [] for tag in cases}
    eigen = {tag: Rounds() for tag in cases}
    reports, lams = {}, {}

    def verify_eigen(tag, lam):
        lams[tag] = lam
        if tag in reports:
            check_sandwich(h, lam, reports[tag])
        h.expect("lambda_max", lam)

    def body(request, traced):
        for tag, case in cases.items():
            sample = h.run(request, f"certify:{tag}", lambda c=case: certify(c, scheme),
                           lambda r: check_certify(h, r, scheme), traced)
            if sample.result is not None:
                reports[tag] = sample.result[0]
            if traced:
                certify_t[tag].append(sample.seconds)
            sysm = case.system
            sample = h.run(
                request, f"eigensolve:{tag}",
                lambda s=sysm: rk.lambda_max_generalized(s.stiffness, s.surrogate_mass),
                lambda lam, t=tag: verify_eigen(t, lam), traced, calibrated=True)
            eigen[tag].add(traced, sample.seconds, sample.cal)

    h.loop(body, min_rounds=2)
    certify_s = sum(median(v) for v in certify_t.values())
    eigensolve_s = sum(median(r.seconds["round"]) for r in eigen.values())
    systems, layer = system_counts(cases)
    layer["bounds.eigen_over_report"] = eigensolve_s / certify_s
    layer["trace.overhead_frac"] = median([r.overhead() for r in eigen.values()])
    omitted = {}
    if h.tracing:
        for tag in cases:
            layer[f"bounds.eigensolve_s.{tag}"] = h.tracer.layer_seconds(
                "bounds.eigensolve", tag=f"eigensolve:{tag}")
        ops = {tag: count_eigen_ops(cases[tag], lams[tag]) for tag in cases if tag in lams}
        if len(ops) == len(cases) and None not in ops.values():
            layer["bounds.eigen_ops"] = sum(ops.values())
            for tag, count in ops.items():
                layer[f"bounds.eigen_ops.{tag}"] = count
        else:
            omitted["bounds.eigen_ops"] = "counting changed lambda_max or an eigensolve failed"
    setup_s = median(setup_times)
    samples = {"setup_s": setup_times, "certify_s": certify_t}
    for tag, r in eigen.items():
        samples[tag] = r.samples("eigensolve")
    return {
        "e2e": {"setup_s": setup_s,
                "result_cal": sum(median(r.cal["round"]) for r in eigen.values())},
        "named": {"setup_s": setup_s, "certify_s": certify_s, "eigensolve_s": eigensolve_s},
        "layer": layer, "systems": systems, "omitted": omitted, "samples": samples,
    }


# --------------------------------------------------------------------------
# integrate-rk4

def smooth(x):
    return math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])


def spmv_bytes(nnz: int, n: int) -> int:
    """Bytes one CSR product reads and writes: values, indices, x and y."""
    return 12 * nnz + 4 * (n + 1) + 16 * n


def run_integrate(h, size) -> dict:
    spec = perturbed(size["rk_n"], h.seed)
    steps = size["rk_steps"]
    scheme = rk.rk_scheme(SCHEME)

    def build():
        case = build_case(spec, 1, rotated(), rk.HRZ_DIAGONAL)
        u0 = rk.l2_project(case.mesh, case.elem, smooth)[case.system.dof_map]
        return case, u0

    def verify_setup(state):
        case, u0 = state
        check_system(h, "system", case)
        h.check(u0.shape == (case.system.n_dofs,) and np.all(np.isfinite(u0)),
                "projected initial state malformed")
        h.expect("u0_norm", float(np.linalg.norm(u0)))

    (case, u0), setup_times = run_setups(h, build, verify_setup)
    certified = h.run("once#0", "certify", lambda: certify(case, scheme),
                      lambda r: check_certify(h, r, scheme))
    if certified.result is None:
        raise RuntimeError("certification failed; see the result file")
    tau = certified.result[1]
    bound = math.sqrt(case.elem.condition_number * case.system.kappa_surrogate)

    def step():
        trace = rk.integrate(case.system, scheme, tau, steps, u0)
        return trace, rk.l2_growth_certificate(trace, case.system, case.elem)

    def verify(result):
        trace, ratio = result
        h.check(trace.n_steps == steps, f"ran {trace.n_steps} of {steps} steps")
        h.check(bool(np.all(np.isfinite(trace.l2_norms)) and np.all(np.isfinite(trace.energy_norms))),
                "nonfinite norm in a stable run")
        h.check(ratio <= bound + 1e-9, f"growth {ratio!r} above certified {bound!r}")
        h.expect("final_l2_norm", float(trace.l2_norms[-1]))
        h.expect("final_energy_norm", float(trace.energy_norms[-1]))
        h.expect("growth_ratio", float(ratio))

    rounds = Rounds()

    def body(request, traced):
        sample = h.run(request, "integrate", step, verify, traced, calibrated=True)
        rounds.add(traced, sample.seconds, sample.cal)

    h.loop(body, min_rounds=3)
    systems, layer = system_counts({"2d-p1-hrz": case})
    system = case.system
    n = system.n_dofs
    per_step = (scheme.n_stages * (spmv_bytes(system.stiffness.nnz, n) + 48 * n)
                + spmv_bytes(system.mass.nnz, n) + spmv_bytes(system.stiffness.nnz, n) + 32 * n)
    layer["timestepping.bytes_per_step"] = per_step
    layer["trace.overhead_frac"] = rounds.overhead()
    if h.tracing:
        step_s = h.tracer.layer_seconds("timestepping.integrate") / steps
        layer["timestepping.step_ms"] = 1e3 * step_s
        layer["timestepping.gbytes_per_s"] = per_step / step_s / 1e9
    setup_s = median(setup_times)
    return {
        "e2e": {"setup_s": setup_s, "result_cal": median(rounds.cal["round"])},
        "named": {"setup_s": setup_s, "certify_s": certified.seconds,
                  "rk_steps_per_s": steps / median(rounds.seconds["round"])},
        "layer": layer, "systems": systems,
        "samples": {"setup_s": setup_times, "certify_s": certified.seconds,
                    "steps_per_round": steps, **rounds.samples("integrate")},
    }


# --------------------------------------------------------------------------
# sweep-cli

CSV_VALUES = ("n_dofs", "lambda_max_exact", "lower_diag_ratio", "upper_diag_ratio",
              "upper_geometric", "upper_zhudu")


def sweep_argv(size, workers: int, out: str) -> list[str]:
    n = size["sweep_n"]
    return ["sweep", "--mesh", f"stretched:nx={n},ny={n},ratio=1", "--order", "2",
            "--diffusion", "aligned", "--policy", "hrz_diagonal",
            "--sweep-axis", "ratio", "--sweep-values", size["sweep_values"],
            "--workers", str(workers), "--out", out]


def run_cli(argv) -> tuple[int, bytes]:
    """In-process CLI call; returns its exit code and the sweep.csv bytes."""
    out = argv[argv.index("--out") + 1]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    data = b""
    if code == 0:
        with open(os.path.join(out, "sweep.csv"), "rb") as handle:
            data = handle.read()
    return code, data


def run_sweep(h, size) -> dict:
    values = [float(v) for v in size["sweep_values"].split(",")]
    scheme = rk.rk_scheme(SCHEME)
    point_setup: dict[str, float] = {}

    def build():
        cases = {}
        for v in values:
            start = time.perf_counter()
            spec = rk.MeshSpec(kind="stretched", nx=size["sweep_n"], ny=size["sweep_n"], ratio=v)
            aligned = rk.DiffusionField.constant(np.diag([1.0, v ** -2]))
            cases[f"r={v:g}"] = build_case(spec, 2, aligned, rk.HRZ_DIAGONAL)
            point_setup[f"r={v:g}"] = time.perf_counter() - start
        return cases

    def verify_setup(cases):
        for tag, case in cases.items():
            check_system(h, tag, case)

    cases, setup_times = run_setups(h, build, verify_setup)

    # The same points through the library: certified steps and exact eigenvalues.
    certify_t, eigen_t, library = {}, {}, {}
    for tag, case in cases.items():
        sample = h.run("once#0", f"certify:{tag}", lambda c=case: certify(c, scheme),
                       lambda r: check_certify(h, r, scheme))
        certify_t[tag] = sample.seconds
        report = None if sample.result is None else sample.result[0]

        def verify_eigen(lam, tag=tag, report=report):
            if report is not None:
                check_sandwich(h, lam, report)
                library[tag] = dict(report.to_dict(), lambda_max_exact=lam)
            h.expect("lambda_max", lam)

        sysm = case.system
        eigen_t[tag] = h.run(
            "once#0", f"eigensolve:{tag}",
            lambda s=sysm: rk.lambda_max_generalized(s.stiffness, s.surrogate_mass),
            verify_eigen).seconds
    certify_s = sum(certify_t.values())
    eigensolve_s = sum(eigen_t.values())

    first: dict[str, bytes] = {}

    def verify_sweep(result, workers):
        code, data = result
        h.check(code == 0, f"sweep exited with code {code}")
        if code != 0:
            return
        first.setdefault("bytes", data)
        h.check(data == first["bytes"], f"sweep.csv bytes differ (workers={workers})")
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        h.check(len(rows) == len(values), f"sweep.csv has {len(rows)} rows")
        for row, v in zip(rows, values):
            tag = f"r={v:g}"
            h.check(row["sandwich_satisfied"] == "true", f"{tag}: sandwich not satisfied")
            expected = library.get(tag)
            h.check(expected is not None, f"{tag}: no library values to compare")
            if expected is None:
                continue
            for name in CSV_VALUES:
                got, want = float(row[name]), float(expected[name])
                h.check(math.isclose(got, want, rel_tol=1e-9),
                        f"{tag}: CLI {name} {got!r} differs from library {want!r}")

    w2_dir = os.path.join(h.out_dir, "sweep-w2")
    rounds = Rounds()

    def body(request, traced):
        sample = h.run(request, "sweep", lambda: run_cli(sweep_argv(size, 2, w2_dir)),
                       lambda r: verify_sweep(r, 2), traced, calibrated=True)
        rounds.add(traced, sample.seconds, sample.cal)

    h.loop(body, min_rounds=3)
    systems, layer = system_counts(cases)
    layer["bounds.eigen_over_report"] = eigensolve_s / certify_s
    layer["trace.overhead_frac"] = rounds.overhead()
    omitted = {}
    samples = {"setup_s": setup_times, "certify_s": certify_t, "eigensolve_s": eigen_t,
               **rounds.samples("sweep")}
    if h.tracing:
        w1_dir = os.path.join(h.out_dir, "sweep-w1")
        w1 = h.run("control#w1", "sweep-w1", lambda: run_cli(sweep_argv(size, 1, w1_dir)),
                   lambda r: verify_sweep(r, 1), traced=False)
        point = [point_setup[t] + certify_t[t] + eigen_t[t] for t in cases]
        layer["cli.sweep_point_s"] = median(point)
        layer["cli.overhead_s"] = w1.seconds - sum(point)
        layer["cli.pool_speedup"] = w1.seconds / median(rounds.seconds["control"])
        samples["sweep_w1_s"] = w1.seconds
        ops = {tag: count_eigen_ops(cases[tag], library[tag]["lambda_max_exact"])
               for tag in cases if tag in library}
        if len(ops) == len(cases) and None not in ops.values():
            layer["bounds.eigen_ops"] = sum(ops.values())
        else:
            omitted["bounds.eigen_ops"] = "counting changed lambda_max or an eigensolve failed"
    setup_s = median(setup_times)
    return {
        "e2e": {"setup_s": setup_s, "result_cal": median(rounds.cal["round"])},
        "named": {"setup_s": setup_s, "certify_s": certify_s, "eigensolve_s": eigensolve_s,
                  "sweep_s": median(rounds.seconds["round"])},
        "layer": layer, "systems": systems, "omitted": omitted, "samples": samples,
    }


@dataclass(frozen=True)
class Workload:
    run: Callable
    seeded: bool  # whether --seed reaches the inputs (a random_perturbed mesh)
    calibration: tuple[str, ...]  # kernels of the same kind as the timed work


WORKLOADS = {
    "certify-p2-128": Workload(run_certify, seeded=True, calibration=("interpreter",)),
    "eigen-mixed": Workload(run_eigen, seeded=False, calibration=("dense",)),
    "integrate-rk4": Workload(run_integrate, seeded=True, calibration=("interpreter",)),
    # Geometry loops and Lanczos at 3,969 DOFs, in two pool threads.
    "sweep-cli": Workload(run_sweep, seeded=False, calibration=("interpreter", "dense")),
}
