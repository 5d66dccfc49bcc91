"""Acceptance gate: the nine headline guarantees, one printed line each.

Each test evaluates one criterion over the full configuration matrix (30
cases: 1D orders 1-3 and 2D orders 1-2, uniform / stretched / randomly
perturbed meshes, isotropic and rotated anisotropic diffusion, consistent
and HRZ-lumped surrogates) and emits a PASS/FAIL verdict line, printed
immediately when capture is off and repeated in the terminal summary.
"""

import json
import math
import sys

import numpy as np
import pytest

from conftest import lambda_max_dense, record_acceptance_line, verify_matrix_inequalities

from rkstab.assembly import (
    CONSISTENT,
    HRZ_DIAGONAL,
    DiffusionField,
    assemble_system,
    l2_project,
)
from rkstab.bounds import (
    compute_bound_report,
    geometric_bound,
    lambda_max_generalized,
    zhudu_bound,
)
from rkstab.cli import main as cli_main
from rkstab.mesh import (
    random_perturbed,
    stretched,
    structured_triangular,
    uniform_interval,
)
from rkstab.reference import build_reference_element
from rkstab.timestepping import (
    BlowUpError,
    integrate,
    l2_growth_certificate,
    rk_scheme,
    stable_timestep,
    top_mode_initial_condition,
)


def report_line(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance {num}] {status} {name}"
    if detail:
        line += f" ({detail})"
    record_acceptance_line(line)
    print(line, file=sys.__stdout__, flush=True)


def _mesh_uniform_1d():
    return uniform_interval(64)


def _mesh_uniform_2d():
    return structured_triangular(12, 12)


def _mesh_stretched_2d():
    return stretched(12, 12, 10.0)


def _mesh_perturbed_2d():
    return random_perturbed(12, 12, 0.02, seed=3)


IDENTITY_1D = DiffusionField.constant(1.0, d=1)
IDENTITY_2D = DiffusionField.constant(1.0, d=2)
ANISO_2D = DiffusionField.rotated_anisotropic(math.pi / 6, (1.0, 100.0))

# label, dimension, order, mesh builder, diffusion, policy
CONFIGS = []
for order in (1, 2, 3):
    for policy in (CONSISTENT, HRZ_DIAGONAL):
        CONFIGS.append(
            (f"1d-m{order}-uniform-identity-{policy.kind}",
             1, order, _mesh_uniform_1d, IDENTITY_1D, policy)
        )
for order in (1, 2):
    for mesh_name, builder in (
        ("uniform", _mesh_uniform_2d),
        ("stretched10", _mesh_stretched_2d),
        ("perturbed", _mesh_perturbed_2d),
    ):
        for diff_name, diffusion in (("identity", IDENTITY_2D), ("aniso", ANISO_2D)):
            for policy in (CONSISTENT, HRZ_DIAGONAL):
                CONFIGS.append(
                    (f"2d-m{order}-{mesh_name}-{diff_name}-{policy.kind}",
                     2, order, builder, diffusion, policy)
                )

assert len(CONFIGS) == 30


@pytest.fixture(scope="module")
def matrix():
    """Assemble every configuration once and compute its bound report."""
    cases = []
    for label, dim, order, builder, diffusion, policy in CONFIGS:
        mesh = builder()
        elem = build_reference_element(dim, order)
        system = assemble_system(mesh, elem, diffusion, policy)
        assert system.n_dofs <= 3000
        rep = compute_bound_report(mesh, elem, diffusion, policy, system=system)
        cases.append((label, mesh, elem, diffusion, policy, system, rep))
    return cases


def test_criterion_1_two_sided_sandwich(matrix):
    slack = 1e-9
    failures = []
    for label, _, _, _, _, _, rep in matrix:
        lam = rep.lambda_max_exact
        ok = (
            rep.lower_diag_ratio <= lam * (1 + slack)
            and lam <= rep.upper_diag_ratio * (1 + slack)
        )
        if not ok:
            failures.append(label)
    passed = not failures
    report_line(
        1,
        "two-sided diagonal-ratio sandwich on eigenvalues",
        passed,
        f"{len(matrix)} configurations" + (f"; failed: {failures}" if failures else ""),
    )
    assert passed, failures


def test_criterion_2_geometric_upper_bound(matrix):
    slack = 1e-9
    failures = []
    for label, _, _, _, _, _, rep in matrix:
        if not rep.lambda_max_exact <= rep.upper_geometric * (1 + slack):
            failures.append(label)
    passed = not failures
    report_line(
        2,
        "patch-geometry upper bound dominates eigenvalues",
        passed,
        f"{len(matrix)} configurations" + (f"; failed: {failures}" if failures else ""),
    )
    assert passed, failures


def test_criterion_3_matrix_inequalities(matrix):
    failures = []
    for label, _, elem, _, _, system, _ in matrix:
        try:
            verify_matrix_inequalities(system)
        except Exception as exc:
            failures.append(f"{label}: {exc}")
    passed = not failures
    report_line(
        3,
        "surrogate and domination matrix inequalities PSD",
        passed,
        f"{len(matrix)} configurations" + (f"; failed: {failures}" if failures else ""),
    )
    assert passed, failures


def _smooth_initial(mesh, elem, system):
    if mesh.dimension == 1:
        func = lambda x: math.sin(math.pi * x[0])
    else:
        func = lambda x: math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])
    return l2_project(mesh, elem, func)[system.dof_map]


def test_criterion_4_euler_step_rule(matrix):
    euler = rk_scheme("explicit_euler")
    failures = []
    for label, mesh, elem, _, _, system, rep in matrix:
        tau = stable_timestep(euler, "diag_ratio", rep)
        u0 = _smooth_initial(mesh, elem, system)
        trace = integrate(system, euler, tau, 1000, u0)
        energy = trace.energy_norms
        if not np.all(energy[1:] <= energy[:-1] * (1 + 1e-12)):
            failures.append(f"{label}: energy increased at stable step")
            continue
        tau_bad = 1.05 * 2.0 / rep.lambda_max_exact
        try:
            integrate(
                system, euler, tau_bad, 5000, top_mode_initial_condition(system)
            )
            failures.append(f"{label}: no blow-up at 1.05x critical step")
        except BlowUpError as err:
            if not err.step <= 5000:
                failures.append(f"{label}: late blow-up at step {err.step}")
    passed = not failures
    report_line(
        4,
        "Euler diagonal-ratio step stable, 1.05x critical step diverges",
        passed,
        f"{len(matrix)} configurations" + (f"; failed: {failures}" if failures else ""),
    )
    assert passed, failures


def test_criterion_5_eigenvalue_scaling_law():
    elem2 = build_reference_element(2, 1)
    lams_2d = []
    for nx in (8, 16, 32):
        mesh = structured_triangular(nx, nx)
        assert mesh.n_elements == 2 * nx * nx
        system = assemble_system(mesh, elem2, IDENTITY_2D, CONSISTENT)
        lams_2d.append(lambda_max_generalized(system.stiffness, system.surrogate_mass))
    ratios_2d = [lams_2d[i + 1] / lams_2d[i] for i in range(2)]

    elem1 = build_reference_element(1, 1)
    lams_1d = []
    for n in (64, 128, 256):
        system = assemble_system(uniform_interval(n), elem1, IDENTITY_1D, CONSISTENT)
        lams_1d.append(lambda_max_generalized(system.stiffness, system.surrogate_mass))
    ratios_1d = [lams_1d[i + 1] / lams_1d[i] for i in range(2)]

    ok_2d = all(3.6 <= r <= 4.4 for r in ratios_2d)
    ok_1d = all(abs(r / 4.0 - 1.0) <= 0.10 for r in ratios_1d)
    passed = ok_2d and ok_1d
    report_line(
        5,
        "largest eigenvalue scales like the squared mesh resolution",
        passed,
        f"2D ratios {[round(r, 3) for r in ratios_2d]}, "
        f"1D ratios {[round(r, 3) for r in ratios_1d]}",
    )
    assert passed, (ratios_2d, ratios_1d)


def test_criterion_6_anisotropy_gap():
    elem = build_reference_element(2, 1)
    values = {}
    for a in (10.0, 100.0):
        mesh = stretched(16, 16, a)
        diffusion = DiffusionField.constant(np.diag([1.0, a**-2]))
        system = assemble_system(mesh, elem, diffusion, CONSISTENT)
        values[a] = (
            zhudu_bound(system),
            geometric_bound(system),
        )
    zhudu_growth = values[100.0][0] / values[10.0][0]
    geo_change = values[100.0][1] / values[10.0][1]
    geo_change = max(geo_change, 1.0 / geo_change)
    passed = zhudu_growth >= 50.0 and geo_change <= 2.0
    report_line(
        6,
        "comparison bound explodes with anisotropy, geometric bound does not",
        passed,
        f"zhudu x{zhudu_growth:.1f}, geometric x{geo_change:.3f}",
    )
    assert passed, (zhudu_growth, geo_change)


def test_criterion_7_l2_growth_certificate(matrix):
    euler = rk_scheme("explicit_euler")
    failures = []
    worst = 0.0
    for label, mesh, elem, _, _, system, rep in matrix:
        tau = stable_timestep(euler, "diag_ratio", rep)
        u0 = _smooth_initial(mesh, elem, system)
        trace = integrate(system, euler, tau, 400, u0)
        try:
            ratio = l2_growth_certificate(trace, system, elem)
            worst = max(worst, ratio)
        except Exception as exc:
            failures.append(f"{label}: {exc}")
    passed = not failures
    report_line(
        7,
        "observed L2 growth within the condition-number certificate",
        passed,
        f"worst ratio {worst:.6f} over {len(matrix)} stable runs"
        + (f"; failed: {failures}" if failures else ""),
    )
    assert passed, failures


def test_criterion_8_eigensolver_oracle_equivalence(matrix):
    failures = []
    checked = 0
    for label, _, _, _, _, system, _ in matrix:
        if system.n_dofs > 200:
            continue
        checked += 1
        iterative = lambda_max_generalized(system.stiffness, system.surrogate_mass)
        dense = lambda_max_dense(system.stiffness, system.surrogate_mass)
        if abs(iterative - dense) > 1e-8 * dense:
            failures.append(f"{label}: {iterative} vs {dense}")
    elem = build_reference_element(1, 1)
    for n in (8, 32, 128):
        system = assemble_system(uniform_interval(n), elem, IDENTITY_1D, HRZ_DIAGONAL)
        iterative = lambda_max_generalized(system.stiffness, system.surrogate_mass)
        h = 1.0 / n
        closed = (4.0 / h**2) * math.sin((n - 1) * math.pi * h / 2.0) ** 2
        if abs(iterative - closed) > 1e-10 * closed:
            failures.append(f"1d-closed-form-n{n}: {iterative} vs {closed}")
        checked += 1
    passed = not failures
    report_line(
        8,
        "iterative eigenvalues match dense and closed-form oracles",
        passed,
        f"{checked} systems" + (f"; failed: {failures}" if failures else ""),
    )
    assert passed, failures


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    mesh_args = [
        "--mesh", "structured_triangular:nx=6,ny=6",
        "--order", "2",
        "--diffusion", "rotated_anisotropic:angle=0.5235987755982988,k1=1,k2=100",
        "--policy", "hrz_diagonal",
        "--seed", "1729",
    ]
    for out, workers in (("w1", "1"), ("w4", "4"), ("w1b", "1")):
        code = cli_main(
            ["sweep", *mesh_args, "--sweep-axis", "n", "--sweep-values", "4,6,8",
             "--workers", workers, "--out", str(tmp_path / out)]
        )
        assert code == 0
    capsys.readouterr()
    single = (tmp_path / "w1" / "sweep.csv").read_bytes()
    pooled = (tmp_path / "w4" / "sweep.csv").read_bytes()
    repeat = (tmp_path / "w1b" / "sweep.csv").read_bytes()

    mesh = structured_triangular(6, 6)
    elem = build_reference_element(2, 2)
    reports = [
        json.dumps(compute_bound_report(mesh, elem, ANISO_2D, HRZ_DIAGONAL).to_dict(),
                   sort_keys=True, indent=2)
        for _ in range(2)
    ]
    passed = single == pooled == repeat and reports[0] == reports[1]
    report_line(
        9,
        "fixed seed gives byte-identical reports at any worker count",
        passed,
        f"{len(single)} CSV bytes compared",
    )
    assert passed
