"""Tests for explicit RK schemes, stable steps, and norm-monitored runs."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import lambda_max_dense

from rkstab.assembly import (
    CONSISTENT,
    HRZ_DIAGONAL,
    DiffusionField,
    assemble_system,
)
from rkstab.bounds import BOUND_CSV_FIELDS, compute_bound_report
from rkstab import timestepping
from rkstab.mesh import random_perturbed, stretched, structured_triangular, uniform_interval
from rkstab.reference import build_reference_element
from rkstab.timestepping import (
    BOUND_SOURCES,
    BlowUpError,
    CertificateError,
    IntegrationTrace,
    integrate,
    l2_growth_certificate,
    rk_scheme,
    scheme_from_tableau,
    stable_timestep,
    top_mode_initial_condition,
)

# Real-axis stability boundaries, frozen from an independent root scan of
# |R(-x)| = 1 (explicit Euler and Heun cross at exactly 2; the third and
# fourth order polynomials were bisected to 1e-14 offline).
BOUNDARY_ORACLE = {
    "explicit_euler": 2.0,
    "heun2": 2.0,
    "kutta3": 2.5127453266183286,
    "classic_rk4": 2.785293563405282,
}


def lumped_interior_lambda_max(n_cells: int) -> float:
    """Exact top eigenvalue of the Dirichlet-reduced lumped 1D P1 pencil."""
    h = 1.0 / n_cells
    k = n_cells - 1
    return (4.0 / h**2) * math.sin(k * math.pi * h / 2.0) ** 2


def interval_system(n_cells, policy, order=1):
    mesh = uniform_interval(n_cells)
    elem = build_reference_element(1, order)
    system = assemble_system(mesh, elem, DiffusionField.constant(1.0, d=1), policy)
    return mesh, elem, system


def smooth_interior_values(n_cells: int) -> np.ndarray:
    nodes = np.arange(1, n_cells) / n_cells
    return np.sin(np.pi * nodes)


class TestSchemes:
    @pytest.mark.parametrize("name", sorted(BOUNDARY_ORACLE))
    def test_consistency_at_zero(self, name):
        scheme = rk_scheme(name)
        assert scheme.stability_poly[0] == 1.0
        assert scheme.amplification(0.0) == 1.0

    @pytest.mark.parametrize("name,expected", sorted(BOUNDARY_ORACLE.items()))
    def test_boundary_matches_oracle(self, name, expected):
        scheme = rk_scheme(name)
        assert scheme.real_stability_boundary == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize("name", sorted(BOUNDARY_ORACLE))
    def test_amplification_bounded_inside_interval(self, name):
        scheme = rk_scheme(name)
        xs = np.linspace(0.0, scheme.real_stability_boundary, 10**4)
        amps = np.abs(scheme.amplification(-xs))
        assert np.all(amps <= 1.0 + 1e-12)

    @pytest.mark.parametrize("name", sorted(BOUNDARY_ORACLE))
    def test_boundary_is_inside_the_stability_interval(self, name):
        scheme = rk_scheme(name)
        s = scheme.real_stability_boundary
        assert abs(scheme.amplification(-s)) <= 1.0
        assert s <= BOUNDARY_ORACLE[name]

    @pytest.mark.parametrize("name,bits", [
        ("explicit_euler", "0x1.0000000000000p+1"),
        ("heun2", "0x1.0000000000000p+1"),
        ("kutta3", "0x1.41a1a38c801f6p+1"),
        ("classic_rk4", "0x1.64847fde4ae00p+1"),
    ])
    def test_boundary_bits_are_pinned(self, name, bits):
        """The scan goes in chunks; every boundary, and so every derived step, keeps its bits."""
        assert rk_scheme(name).real_stability_boundary.hex() == bits

    @pytest.mark.parametrize("name", sorted(BOUNDARY_ORACLE))
    def test_named_scheme_is_built_once(self, name):
        assert rk_scheme(name) is rk_scheme(name)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            rk_scheme("leapfrog")

    def test_heun_tableau_matches_named_scheme(self):
        scheme = scheme_from_tableau(
            [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], name="heun_from_tableau"
        )
        named = rk_scheme("heun2")
        assert scheme.stability_poly == named.stability_poly
        assert scheme.real_stability_boundary == pytest.approx(
            named.real_stability_boundary, abs=1e-12
        )

    def test_classic_rk4_tableau_matches_named_scheme(self):
        a = np.zeros((4, 4))
        a[1, 0] = 0.5
        a[2, 1] = 0.5
        a[3, 2] = 1.0
        b = [1 / 6, 1 / 3, 1 / 3, 1 / 6]
        scheme = scheme_from_tableau(a, b)
        named = rk_scheme("classic_rk4")
        np.testing.assert_allclose(
            scheme.stability_poly, named.stability_poly, rtol=0, atol=1e-15
        )

    def test_boundary_where_the_doubling_stops_just_above_one(self):
        """|R(-4)| - 1 is 4.4e-16: the scan brackets by the test that stopped the doubling."""
        weight = np.nextafter(0.5, 1.0)
        scheme = scheme_from_tableau(np.zeros((1, 1)), [weight])
        s = scheme.real_stability_boundary
        assert s == 3.999999999999404
        assert abs(scheme.amplification(-s)) <= 1.0
        assert 2.0 / weight - 1e-12 <= s <= 2.0 / weight

    def test_tableau_must_be_strictly_lower_triangular(self):
        with pytest.raises(ValueError, match="not explicit"):
            scheme_from_tableau([[0.5]], [1.0])

    def test_tableau_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            scheme_from_tableau(np.zeros((3, 3)), [0.5, 0.5])

    @pytest.mark.parametrize("a,b", [([[math.nan]], [1.0]), ([[0.0, 0.0], [math.inf, 0.0]], [0.5, 0.5])],
                             ids=["nan-diagonal", "inf-below-diagonal"])
    def test_tableau_must_be_finite(self, a, b):
        with pytest.raises(ValueError, match="non-finite"):
            scheme_from_tableau(a, b)


class TestStableTimestep:
    def test_diag_ratio_step_is_half_h_squared_for_lumped_p1(self):
        n = 8
        mesh = uniform_interval(n)
        elem = build_reference_element(1, 1)
        report = compute_bound_report(
            mesh, elem, DiffusionField.constant(1.0, d=1), HRZ_DIAGONAL
        )
        tau = stable_timestep(rk_scheme("explicit_euler"), "diag_ratio", report)
        h = 1.0 / n
        assert tau == pytest.approx(h**2 / 2.0, rel=1e-13)

    def test_exact_step_matches_closed_form_eigenvalue(self):
        n = 16
        mesh = uniform_interval(n)
        elem = build_reference_element(1, 1)
        report = compute_bound_report(
            mesh, elem, DiffusionField.constant(1.0, d=1), HRZ_DIAGONAL
        )
        tau = stable_timestep(rk_scheme("explicit_euler"), "exact", report)
        assert tau == pytest.approx(2.0 / lumped_interior_lambda_max(n), rel=1e-10)

    @pytest.mark.parametrize("policy", [CONSISTENT, HRZ_DIAGONAL])
    def test_bounded_sources_never_exceed_exact(self, policy):
        mesh = structured_triangular(6, 6)
        elem = build_reference_element(2, 2)
        report = compute_bound_report(
            mesh,
            elem,
            DiffusionField.rotated_anisotropic(0.3, (1.0, 50.0)),
            policy,
        )
        euler = rk_scheme("explicit_euler")
        tau_exact = stable_timestep(euler, "exact", report)
        assert stable_timestep(euler, "diag_ratio", report) <= tau_exact * (1 + 1e-12)
        assert stable_timestep(euler, "geometric", report) <= tau_exact * (1 + 1e-12)

    def test_higher_order_scheme_allows_larger_step(self):
        mesh = uniform_interval(12)
        elem = build_reference_element(1, 1)
        report = compute_bound_report(
            mesh, elem, DiffusionField.constant(1.0, d=1), CONSISTENT
        )
        tau_euler = stable_timestep(rk_scheme("explicit_euler"), "exact", report)
        tau_rk4 = stable_timestep(rk_scheme("classic_rk4"), "exact", report)
        assert tau_rk4 > tau_euler

    def test_missing_exact_source_errors(self):
        mesh = uniform_interval(20)
        elem = build_reference_element(1, 1)
        report = compute_bound_report(
            mesh,
            elem,
            DiffusionField.constant(1.0, d=1),
            HRZ_DIAGONAL,
            dof_cap=4,
        )
        assert report.lambda_max_exact is None
        with pytest.raises(ValueError, match="unavailable"):
            stable_timestep(rk_scheme("explicit_euler"), "exact", report)
        assert stable_timestep(rk_scheme("explicit_euler"), "diag_ratio", report) > 0

    def test_each_source_is_a_report_field(self):
        assert set(BOUND_SOURCES.values()) <= set(BOUND_CSV_FIELDS)

    def test_unknown_source_errors(self):
        mesh = uniform_interval(4)
        elem = build_reference_element(1, 1)
        report = compute_bound_report(
            mesh, elem, DiffusionField.constant(1.0, d=1), HRZ_DIAGONAL
        )
        with pytest.raises(ValueError, match="unknown bound source"):
            stable_timestep(rk_scheme("explicit_euler"), "spectral", report)


class TestIntegrate:
    def test_zero_initial_condition_gives_zero_trace(self):
        _, _, system = interval_system(8, HRZ_DIAGONAL)
        trace = integrate(
            system, rk_scheme("explicit_euler"), 1e-3, 20, np.zeros(system.n_dofs)
        )
        assert np.all(trace.l2_norms == 0.0)
        assert np.all(trace.energy_norms == 0.0)
        assert np.all(trace.final_state == 0.0)

    def test_zero_steps_records_initial_state_only(self):
        _, _, system = interval_system(8, CONSISTENT)
        u0 = smooth_interior_values(8)
        trace = integrate(system, rk_scheme("heun2"), 1e-3, 0, u0)
        assert trace.n_steps == 0
        assert len(trace.times) == 1
        assert trace.times[0] == 0.0
        np.testing.assert_array_equal(trace.final_state, u0)

    def test_zero_stiffness_step_reproduces_initial_vector_exactly(self):
        _, _, system = interval_system(8, HRZ_DIAGONAL)
        frozen = dataclasses.replace(
            system, stiffness=sp.csr_array(system.stiffness.shape)
        )
        u0 = smooth_interior_values(8)
        trace = integrate(frozen, rk_scheme("explicit_euler"), 0.5, 1, u0)
        np.testing.assert_array_equal(trace.final_state, u0)
        assert trace.l2_norms[1] == trace.l2_norms[0]
        assert np.all(trace.energy_norms == 0.0)

    def test_linearity_in_initial_condition(self):
        _, _, system = interval_system(10, CONSISTENT)
        scheme = rk_scheme("kutta3")
        u0 = smooth_interior_values(10)
        tau = 1e-4
        base = integrate(system, scheme, tau, 50, u0)
        scaled = integrate(system, scheme, tau, 50, 3.0 * u0)
        np.testing.assert_allclose(
            scaled.final_state, 3.0 * base.final_state, rtol=1e-13
        )
        np.testing.assert_allclose(scaled.l2_norms, 3.0 * base.l2_norms, rtol=1e-12)

    def test_timestamps_and_finiteness(self):
        _, _, system = interval_system(8, HRZ_DIAGONAL)
        tau = 0.9 * 2.0 / lumped_interior_lambda_max(8)
        trace = integrate(
            system, rk_scheme("explicit_euler"), tau, 100, smooth_interior_values(8)
        )
        assert np.all(np.diff(trace.times) > 0)
        assert np.all(np.isfinite(trace.l2_norms))
        assert np.all(np.isfinite(trace.energy_norms))
        assert trace.tau == tau
        assert trace.scheme == "explicit_euler"

    def test_invalid_arguments(self):
        _, _, system = interval_system(4, HRZ_DIAGONAL)
        scheme = rk_scheme("explicit_euler")
        u0 = np.zeros(system.n_dofs)
        with pytest.raises(ValueError, match="positive"):
            integrate(system, scheme, 0.0, 1, u0)
        with pytest.raises(ValueError, match="positive"):
            integrate(system, scheme, float("nan"), 3, u0)
        with pytest.raises(ValueError, match="positive"):
            integrate(system, scheme, math.inf, 3, u0)
        with pytest.raises(ValueError, match="non-finite"):
            integrate(system, scheme, 1e-3, 1, np.full(system.n_dofs, np.nan))
        with pytest.raises(ValueError, match="nonnegative"):
            integrate(system, scheme, 1e-3, -1, u0)
        with pytest.raises(ValueError, match="shape"):
            integrate(system, scheme, 1e-3, 1, np.zeros(system.n_dofs + 1))

    def test_trace_csv_round_trip(self, tmp_path):
        _, _, system = interval_system(8, CONSISTENT)
        tau = 1e-3
        trace = integrate(
            system, rk_scheme("heun2"), tau, 5, smooth_interior_values(8)
        )
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t,l2_norm,energy_norm"
        assert len(lines) == 7
        for n, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == n
            assert float(fields[1]) == trace.times[n]
            assert float(fields[2]) == trace.l2_norms[n]
            assert float(fields[3]) == trace.energy_norms[n]


STABLE_CASES = [
    ("explicit_euler", HRZ_DIAGONAL),
    ("explicit_euler", CONSISTENT),
    ("heun2", HRZ_DIAGONAL),
    ("kutta3", CONSISTENT),
    ("classic_rk4", HRZ_DIAGONAL),
]


class TestStabilityDichotomy:
    @pytest.mark.parametrize("name,policy", STABLE_CASES)
    def test_step_inside_boundary_keeps_energy_non_increasing(self, name, policy):
        _, elem, system = interval_system(16, policy)
        lam = lambda_max_dense(system.stiffness, system.surrogate_mass)
        scheme = rk_scheme(name)
        tau = 0.999 * scheme.real_stability_boundary / lam
        trace = integrate(system, scheme, tau, 1000, smooth_interior_values(16))
        energy = trace.energy_norms
        assert np.all(energy[1:] <= energy[:-1] * (1.0 + 1e-12))
        ratio = l2_growth_certificate(trace, system, elem)
        assert ratio >= 1.0

    def test_2d_stable_run(self):
        mesh = structured_triangular(6, 6)
        elem = build_reference_element(2, 2)
        system = assemble_system(
            mesh,
            elem,
            DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 10.0)),
            HRZ_DIAGONAL,
        )
        lam = lambda_max_dense(system.stiffness, system.surrogate_mass)
        scheme = rk_scheme("classic_rk4")
        tau = 0.999 * scheme.real_stability_boundary / lam
        rng = np.random.default_rng(7)
        trace = integrate(system, scheme, tau, 400, rng.standard_normal(system.n_dofs))
        energy = trace.energy_norms
        assert np.all(energy[1:] <= energy[:-1] * (1.0 + 1e-12))
        l2_growth_certificate(trace, system, elem)

    @pytest.mark.parametrize("policy", [HRZ_DIAGONAL, CONSISTENT])
    def test_step_beyond_boundary_blows_up_from_top_mode(self, policy):
        _, _, system = interval_system(16, policy)
        lam = lambda_max_dense(system.stiffness, system.surrogate_mass)
        tau = 1.05 * 2.0 / lam
        u0 = top_mode_initial_condition(system)
        with pytest.raises(BlowUpError, match="blow-up detected") as excinfo:
            integrate(system, rk_scheme("explicit_euler"), tau, 5000, u0)
        err = excinfo.value
        assert 0 < err.step <= 5000
        assert len(err.trace.times) == err.step
        assert np.all(np.isfinite(err.trace.l2_norms))

    def test_blow_up_partial_trace_is_consistent_prefix(self):
        _, _, system = interval_system(12, HRZ_DIAGONAL)
        lam = lambda_max_dense(system.stiffness, system.surrogate_mass)
        tau = 1.2 * 2.0 / lam
        u0 = top_mode_initial_condition(system)
        with pytest.raises(BlowUpError) as excinfo:
            integrate(system, rk_scheme("explicit_euler"), tau, 5000, u0)
        partial = excinfo.value.trace
        assert np.all(np.diff(partial.times) > 0)
        assert np.all(partial.l2_norms[1:] >= partial.l2_norms[:-1])


class TestGrowthCertificate:
    def test_consistent_mass_growth_at_most_one(self):
        _, elem, system = interval_system(16, CONSISTENT)
        lam = lambda_max_dense(system.stiffness, system.surrogate_mass)
        tau = 0.95 * 2.0 / lam
        trace = integrate(
            system, rk_scheme("explicit_euler"), tau, 500, smooth_interior_values(16)
        )
        ratio = l2_growth_certificate(trace, system, elem)
        assert ratio <= 1.0 + 1e-12

    def test_certificate_bound_values(self):
        _, elem, system_c = interval_system(16, CONSISTENT)
        assert math.sqrt(elem.condition_number * system_c.kappa_surrogate) == (
            pytest.approx(3.0, rel=1e-13)
        )
        _, _, system_l = interval_system(16, HRZ_DIAGONAL)
        assert math.sqrt(elem.condition_number * system_l.kappa_surrogate) == (
            pytest.approx(math.sqrt(3.0), rel=1e-13)
        )

    def test_lumped_stable_run_obeys_sqrt3_bound(self):
        _, elem, system = interval_system(16, HRZ_DIAGONAL)
        lam = lambda_max_dense(system.stiffness, system.surrogate_mass)
        tau = 0.999 * 2.0 / lam
        rng = np.random.default_rng(11)
        trace = integrate(
            system, rk_scheme("explicit_euler"), tau, 800, rng.standard_normal(system.n_dofs)
        )
        ratio = l2_growth_certificate(trace, system, elem)
        assert ratio <= math.sqrt(3.0) + 1e-9

    def test_violation_reports_offending_step(self):
        _, elem, system = interval_system(8, HRZ_DIAGONAL)
        trace = IntegrationTrace(
            times=np.array([0.0, 1.0, 2.0]),
            l2_norms=np.array([1.0, 1.1, 10.0]),
            energy_norms=np.zeros(3),
            tau=1.0,
            scheme="explicit_euler",
            final_state=np.zeros(system.n_dofs),
        )
        with pytest.raises(CertificateError, match="step 2") as excinfo:
            l2_growth_certificate(trace, system, elem)
        assert excinfo.value.step == 2
        assert excinfo.value.ratio == pytest.approx(10.0)

    def test_refuses_an_element_the_system_was_not_built_with(self):
        _, elem, system = interval_system(8, HRZ_DIAGONAL)
        trace = integrate(
            system, rk_scheme("explicit_euler"), 1e-3, 2, smooth_interior_values(8)
        )
        assert l2_growth_certificate(trace, system, elem) >= 1.0
        with pytest.raises(ValueError, match="not assembled with this element"):
            l2_growth_certificate(trace, system, build_reference_element(1, 1))

    def test_zero_trace_certifies_trivially(self):
        _, elem, system = interval_system(8, HRZ_DIAGONAL)
        trace = integrate(
            system, rk_scheme("explicit_euler"), 1e-3, 10, np.zeros(system.n_dofs)
        )
        assert l2_growth_certificate(trace, system, elem) == 0.0


# Butcher tableaux (A strictly lower, b) of the named schemes, for the oracle.
NAMED_TABLEAUX = {
    "explicit_euler": ([[0.0]], [1.0]),
    "heun2": ([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]),
    "kutta3": (
        [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
        [1 / 6, 2 / 3, 1 / 6],
    ),
    "classic_rk4": (
        [[0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1.0, 0]],
        [1 / 6, 1 / 3, 1 / 3, 1 / 6],
    ),
}
# A tableau whose polynomial 1 + z + 0.4 z^2 + 0.0625 z^3 is none of the above.
GENERIC_TABLEAU = ([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.25, 0.25, 0.0]], [0.2, 0.3, 0.5])


def butcher_oracle(system, tableau, tau, n_steps, u0):
    """Stage-by-stage explicit RK with dense matrices: state and both norm series."""
    a, b = (np.asarray(x, dtype=float) for x in tableau)
    mass = system.mass.toarray()
    stiffness = system.stiffness.toarray()
    rhs = -np.linalg.solve(system.surrogate_mass.toarray(), stiffness)
    u = np.array(u0, dtype=float)
    l2, energy = [], []
    for step in range(n_steps + 1):
        l2.append(math.sqrt(u @ mass @ u))
        energy.append(math.sqrt(u @ stiffness @ u))
        if step == n_steps:
            break
        k = np.zeros((b.size, u.size))
        for i in range(b.size):
            k[i] = rhs @ (u + tau * (a[i, :i] @ k[:i]))
        u = u + tau * (b @ k)
    return u, np.array(l2), np.array(energy)


def mesh_system(mesh, order, policy):
    """Unit diffusion in 1D; in 2D, D rotated by pi/6 with eigenvalues 1 and 10."""
    diffusion = (
        DiffusionField.constant(1.0, d=1)
        if mesh.dimension == 1
        else DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 10.0))
    )
    elem = build_reference_element(mesh.dimension, order)
    return assemble_system(mesh, elem, diffusion, policy)


def oracle_system(dimension, order, policy):
    """P2 patterns stay CSR; the P1 meshes are large enough to be stored as diagonals."""
    if dimension == 1:
        return mesh_system(uniform_interval(12), order, policy)
    return mesh_system(structured_triangular(*((6, 6) if order == 2 else (8, 8))), order, policy)


ORACLE_SCHEMES = [
    *((rk_scheme(name), tableau) for name, tableau in NAMED_TABLEAUX.items()),
    (scheme_from_tableau(*GENERIC_TABLEAU, name="generic3"), GENERIC_TABLEAU),
]


class TestAgainstButcherOracle:
    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("order", [1, 2], ids=["p1", "p2"])
    @pytest.mark.parametrize("policy", [HRZ_DIAGONAL, CONSISTENT], ids=["hrz", "consistent"])
    @pytest.mark.parametrize(
        "scheme,tableau", ORACLE_SCHEMES, ids=[s.name for s, _ in ORACLE_SCHEMES]
    )
    def test_integrate_matches_stage_by_stage_update(
        self, scheme, tableau, policy, order, dimension
    ):
        system = oracle_system(dimension, order, policy)
        stored = timestepping._product_storage(system.stiffness)
        assert stored.format == ("dia" if order == 1 else "csr")
        lam = lambda_max_dense(system.stiffness, system.surrogate_mass)
        tau = 0.9 * scheme.real_stability_boundary / lam
        u0 = np.random.default_rng(5).standard_normal(system.n_dofs)
        trace = integrate(system, scheme, tau, 50, u0)
        state, l2, energy = butcher_oracle(system, tableau, tau, 50, u0)
        # components are compared relative to the state's scale, not their own
        np.testing.assert_allclose(
            trace.final_state, state, rtol=1e-12, atol=1e-12 * np.abs(state).max()
        )
        np.testing.assert_allclose(trace.l2_norms, l2, rtol=1e-12)
        np.testing.assert_allclose(trace.energy_norms, energy, rtol=1e-12)


def counting_csr(matrix):
    """A copy of matrix whose class counts its products (A @ x), copies included."""

    class Counting(sp.csr_array):
        products = 0

        def __matmul__(self, other):
            type(self).products += 1
            return super().__matmul__(other)

    return Counting(matrix)


@pytest.fixture
def counted_storage(monkeypatch):
    """Operators the stepper converts count their products on their source's counter.

    Returns the list of converted operators, so a test sees which path ran.
    """
    convert = timestepping._product_storage
    converted = []

    def counting_storage(matrix):
        stored = convert(matrix)
        if stored is matrix:
            return stored
        source = type(matrix)

        class Counting(type(stored)):
            def __matmul__(self, other):
                source.products += 1
                return super().__matmul__(other)

        converted.append(stored)
        return Counting(stored)

    monkeypatch.setattr(timestepping, "_product_storage", counting_storage)
    return converted


@pytest.mark.parametrize("order", [1, 2], ids=["p1-dia", "p2-csr"])
@pytest.mark.parametrize("policy", [HRZ_DIAGONAL, CONSISTENT], ids=["hrz", "consistent"])
@pytest.mark.parametrize("name", sorted(NAMED_TABLEAUX))
def test_step_costs_s_stiffness_products_and_one_mass_product(
    name, policy, order, counted_storage
):
    _, _, system = interval_system(10, policy, order=order)
    counted = dataclasses.replace(system, stiffness=counting_csr(system.stiffness))
    vars(counted)["mass"] = counting_csr(system.mass)  # fills the cached property
    scheme = rk_scheme(name)
    n_steps = 7
    integrate(counted, scheme, 1e-4, n_steps, np.linspace(0.0, 1.0, system.n_dofs))
    # A and M for the norms, and the stage matrix of a diagonal surrogate
    expected_conversions = 3 if policy is HRZ_DIAGONAL else 2
    assert len(counted_storage) == (expected_conversions if order == 1 else 0)
    # the initial state's norms take one product of each
    assert type(counted.stiffness).products == n_steps * scheme.n_stages + 1
    assert type(counted.mass).products == n_steps + 1


P1_MESHES = {
    "structured": lambda: structured_triangular(12, 12),
    "perturbed": lambda: random_perturbed(12, 12, 0.02, seed=4),
    "stretched": lambda: stretched(12, 12, 100.0),
    "interval": lambda: uniform_interval(40),
}


class TestProductStorage:
    @pytest.mark.parametrize("policy", [HRZ_DIAGONAL, CONSISTENT], ids=["hrz", "consistent"])
    @pytest.mark.parametrize("mesh_name", sorted(P1_MESHES))
    def test_p1_products_have_the_csr_bytes(self, mesh_name, policy):
        system = mesh_system(P1_MESHES[mesh_name](), 1, policy)
        rng = np.random.default_rng(3)
        # magnitudes over 40 decades, some exact zeros and negative zeros
        x = rng.standard_normal(system.n_dofs) * 10.0 ** rng.integers(-20, 20, system.n_dofs)
        x[::7] = 0.0
        x[3::11] = -0.0
        for matrix in (system.stiffness, system.mass):
            stored = timestepping._product_storage(matrix)
            assert stored.format == "dia"
            assert (stored @ x).tobytes() == (matrix @ x).tobytes()

    @pytest.mark.parametrize("policy", [HRZ_DIAGONAL, CONSISTENT], ids=["hrz", "consistent"])
    @pytest.mark.parametrize("mesh_name", sorted(P1_MESHES))
    def test_p1_trace_has_the_csr_bytes(self, mesh_name, policy, monkeypatch):
        system = mesh_system(P1_MESHES[mesh_name](), 1, policy)
        scheme = rk_scheme("classic_rk4")
        tau = 0.9 * scheme.real_stability_boundary / lambda_max_dense(
            system.stiffness, system.surrogate_mass)
        u0 = np.random.default_rng(9).standard_normal(system.n_dofs)
        banded = integrate(system, scheme, tau, 30, u0)
        monkeypatch.setattr(timestepping, "_product_storage", lambda matrix: matrix)
        general = integrate(system, scheme, tau, 30, u0)
        for field in ("l2_norms", "energy_norms", "final_state"):
            assert getattr(banded, field).tobytes() == getattr(general, field).tobytes()

    def test_p2_pattern_stays_csr(self):
        for system in (interval_system(10, HRZ_DIAGONAL, order=2)[2],
                       oracle_system(2, 2, HRZ_DIAGONAL)):
            assert timestepping._product_storage(system.stiffness) is system.stiffness

    def test_non_canonical_csr_stays_csr(self):
        canonical = sp.csr_array(
            sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(10, 10))
        )
        assert timestepping._product_storage(canonical).format == "dia"
        # the same tridiagonal pattern, but row 1 lists its columns in descending order
        indices, data = canonical.indices.copy(), canonical.data.copy()
        indices[2:5], data[2:5] = indices[4:1:-1], data[4:1:-1]
        unsorted = sp.csr_array((data, indices, canonical.indptr), shape=canonical.shape)
        assert not unsorted.has_canonical_format
        assert timestepping._product_storage(unsorted) is unsorted
