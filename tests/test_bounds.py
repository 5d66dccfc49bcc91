import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.csgraph import reverse_cuthill_mckee

from conftest import (
    InequalityViolation,
    _negative_direction,
    lambda_max_dense,
    verify_matrix_inequalities,
)

import rkstab
import rkstab.bounds
from rkstab.assembly import (
    CONSISTENT,
    HRZ_DIAGONAL,
    NODE_QUADRATURE,
    DiffusionField,
    SurrogateAxiomError,
    assemble_mass,
    assemble_system,
    band_renumbering,
    upper_band_storage,
)
from rkstab.bounds import (
    BOUND_CSV_FIELDS,
    BoundReport,
    ConvergenceError,
    compute_bound_report,
    diag_ratio_bounds,
    element_alignment_factor,
    geometric_bound,
    is_m_matrix,
    lambda_max_generalized,
    lambda_max_with_vector,
    zhudu_bound,
)
from rkstab.mesh import (
    build_affine_maps,
    random_perturbed,
    stretched,
    structured_triangular,
    uniform_interval,
)
from rkstab.reference import build_reference_element, simplex_quadrature


def identity(d):
    return DiffusionField.constant(np.eye(d))


def lumped_interior_lambda_max(n_cells: int) -> float:
    """Closed-form top eigenvalue: 1D P1, uniform, lumped, Dirichlet ends."""
    h = 1.0 / n_cells
    k = n_cells - 1
    return (4.0 / h**2) * math.sin(k * math.pi * h / 2.0) ** 2


def geometric(mesh, elem, diffusion, policy):
    system = assemble_system(mesh, elem, diffusion, policy)
    return geometric_bound(system)


def lumped_1d_system(n_cells):
    mesh = uniform_interval(n_cells)
    elem = build_reference_element(1, 1)
    return assemble_system(mesh, elem, identity(1), HRZ_DIAGONAL), elem


def test_identity_pencil():
    eye = sp.csr_array(sp.eye_array(40))
    assert abs(lambda_max_generalized(eye, eye) - 1.0) < 1e-14


@pytest.mark.parametrize("n_cells", [8, 16, 64, 200])
def test_lambda_max_matches_closed_form(n_cells):
    system, _ = lumped_1d_system(n_cells)
    lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    exact = lumped_interior_lambda_max(n_cells)
    assert abs(lam - exact) < 1e-10 * exact


def test_lambda_max_specific_value():
    system, _ = lumped_1d_system(8)
    lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    assert abs(lam - 246.2566) < 1e-3  # (4/h^2) sin^2(7 pi/16), h = 1/8


def test_consistent_mass_approaches_asymptote():
    mesh = uniform_interval(64)
    elem = build_reference_element(1, 1)
    system = assemble_system(mesh, elem, identity(1), CONSISTENT)
    lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    dense = lambda_max_dense(system.stiffness, system.surrogate_mass)
    assert abs(lam - dense) < 1e-8 * dense
    assert lam < 12.0 * 64**2
    assert lam > 11.5 * 64**2


@pytest.mark.parametrize("d,m,make,policy", [
    (1, 2, lambda: uniform_interval(12), CONSISTENT),
    (1, 3, lambda: uniform_interval(8), HRZ_DIAGONAL),
    (2, 1, lambda: structured_triangular(4, 4), CONSISTENT),
    (2, 2, lambda: random_perturbed(3, 3, 0.05, seed=5), HRZ_DIAGONAL),
])
def test_lambda_max_matches_dense_oracle(d, m, make, policy):
    mesh = make()
    elem = build_reference_element(d, m)
    D = identity(d) if d == 1 else DiffusionField.rotated_anisotropic(0.4, (1.0, 20.0))
    system = assemble_system(mesh, elem, D, policy)
    assert system.n_dofs <= 200
    lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    dense = lambda_max_dense(system.stiffness, system.surrogate_mass)
    assert abs(lam - dense) < 1e-8 * dense


@pytest.mark.parametrize("policy", [HRZ_DIAGONAL, CONSISTENT], ids=lambda p: p.kind)
def test_lambda_max_matches_dense_oracle_at_benchmark_size(policy):
    # 1D P3 on 250 cells, 749 DOFs: the size of the benchmark's 1D eigensolves.
    system = assemble_system(uniform_interval(250), build_reference_element(1, 3),
                             identity(1), policy)
    assert system.n_dofs == 749
    lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    dense = lambda_max_dense(system.stiffness, system.surrogate_mass)
    assert abs(lam - dense) <= 1e-10 * dense


def test_lambda_max_deterministic():
    system, _ = lumped_1d_system(32)
    a = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    b = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    assert a == b


def test_convergence_error_carries_best_estimate(monkeypatch):
    # A 2D pencil: a 1D one takes the banded bisection, which cannot fail to converge.
    system = small_2d_p2(HRZ_DIAGONAL)
    monkeypatch.setattr(rkstab.bounds, "_MAX_OPS", 3)
    with pytest.raises(ConvergenceError) as info:
        lambda_max_generalized(system.stiffness, system.surrogate_mass)
    err = info.value
    assert err.best_estimate > 0
    assert np.isfinite(err.residual)


class CountingCSR(sp.csr_array):
    """CSR matrix that counts its applications A @ x."""

    applications = 0

    def __matmul__(self, other):
        self.applications += 1
        return super().__matmul__(other)


def banded_lambda_max(A: sp.csr_array, diag_m: np.ndarray) -> float:
    """Exact top eigenvalue of D^-1/2 A D^-1/2 (D = diag_m) via its band form."""
    scale = sp.diags_array(1.0 / np.sqrt(diag_m))
    S = sp.csr_array(scale @ A @ scale)
    n = S.shape[0]
    perm = reverse_cuthill_mckee(S, symmetric_mode=True)
    upper = sp.triu(S[perm][:, perm]).tocoo()
    width = int(np.max(upper.coords[1] - upper.coords[0]))
    band = np.zeros((width + 1, n))
    band[width + upper.coords[0] - upper.coords[1], upper.coords[1]] = upper.data
    return float(sla.eigvals_banded(band, select="i", select_range=(n - 1, n - 1))[0])


def p3_hrz(n_cells):
    """1D P3 HRZ on n_cells, and its top eigenvalue by the band-form oracle."""
    system = assemble_system(uniform_interval(n_cells), build_reference_element(1, 3),
                             identity(1), HRZ_DIAGONAL)
    return system, banded_lambda_max(system.stiffness, system.diag_surrogate)


@pytest.fixture(scope="module")
def p3_hrz_1000():
    return p3_hrz(1000)


def test_lambda_max_1d_p3_hrz_clustered_spectrum(p3_hrz_1000):
    system, oracle = p3_hrz_1000
    lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    assert abs(lam - oracle) < 1e-10 * oracle


@pytest.fixture(scope="module")
def coupled_p3_strip():
    """A pencil that fails the band rule yet needs a long Lanczos run.

    Five copies of the 1D P3 HRZ pencil (A1, M1) on 600 cells, coupled
    across by c = 1e-6 times T = tridiag(-1, 2, -1): A = A1 x I + c M1 x T
    and Mt = M1 x I, 8,995 DOFs.  Its eigenvalues are lambda_i(A1, M1) +
    c tau_j, so it keeps the clustered top of the 1D pencil, while its union
    pattern renumbers to a band of 15 against a limit of 12.  It stays below
    the 10,000 entries at which OpenBLAS threads a dot.
    """
    one_d, _ = p3_hrz(600)
    A1, M1 = one_d.stiffness, one_d.surrogate_mass
    T = sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(5, 5))
    c = 1e-6
    A = sp.csr_array(sp.kron(A1, sp.eye_array(5)) + c * sp.kron(M1, T))
    Mt = sp.csr_array(sp.kron(M1, sp.eye_array(5)))
    assert band_renumbering(A, Mt) is None
    tau_max = 2.0 + 2.0 * math.cos(math.pi / 6)
    return A, Mt, banded_lambda_max(A1, M1.diagonal()) + c * tau_max


def test_capped_solve_respects_max_ops(coupled_p3_strip, monkeypatch):
    A, Mt, oracle = coupled_p3_strip
    stiffness = CountingCSR(A)
    monkeypatch.setattr(rkstab.bounds, "_MAX_OPS", 500)
    with pytest.raises(ConvergenceError) as info:
        lambda_max_generalized(stiffness, Mt)
    assert 0 < stiffness.applications <= 500
    err = info.value
    assert 0 < err.best_estimate <= oracle
    assert np.isfinite(err.residual) and err.residual > 0


def checked_steps(monkeypatch) -> list[int]:
    """Record the step k of every convergence check (the size of T_k)."""
    steps = []
    top_pair = rkstab.bounds._tridiagonal_top_pair

    def counting(alphas, betas):
        steps.append(alphas.size)
        return top_pair(alphas, betas)

    monkeypatch.setattr(rkstab.bounds, "_tridiagonal_top_pair", counting)
    return steps


def check_schedule(last: int) -> list[int]:
    """Steps 10, 20, ..., 100, then a gap of k // 10, up to last."""
    steps = [10]
    while steps[-1] + max(10, steps[-1] // 10) <= last:
        steps.append(steps[-1] + max(10, steps[-1] // 10))
    return steps


def test_long_solve_checks_on_a_growing_schedule(coupled_p3_strip, monkeypatch):
    # The residual test first passes at step 1,266, so a check every 10
    # steps would make 127 checks and 1,270 A products.  The growing gap
    # makes 37 checks, up to step 1,273: at most 10% more products.
    A, Mt, oracle = coupled_p3_strip
    steps = checked_steps(monkeypatch)
    stiffness = CountingCSR(A)
    lam = lambda_max_generalized(stiffness, Mt)
    assert abs(lam - oracle) < 1e-10 * oracle
    assert len(steps) <= 45
    assert stiffness.applications <= 1397
    assert steps == check_schedule(stiffness.applications)


def test_capped_solve_checks_its_last_step(coupled_p3_strip, monkeypatch):
    # The run converges at step 1,266, between the scheduled checks at 1,158
    # and 1,273 steps, so a cap of 1,270 steps ends between them, past convergence.
    A, Mt, oracle = coupled_p3_strip
    steps = checked_steps(monkeypatch)
    stiffness = CountingCSR(A)
    monkeypatch.setattr(rkstab.bounds, "_MAX_OPS", 1271)
    lam = lambda_max_generalized(stiffness, Mt)
    assert abs(lam - oracle) < 1e-10 * oracle
    assert stiffness.applications == 1270
    assert 1270 not in check_schedule(1400)
    assert steps == check_schedule(1270) + [1270]


def top_pair_oracle(alphas, betas):
    theta, s = sla.eigh_tridiagonal(alphas, betas, select="i",
                                    select_range=(alphas.size - 1, alphas.size - 1))
    return theta[0], s[:, 0]


def assert_top_pair_matches_oracle(alphas, betas):
    theta, s = rkstab.bounds._tridiagonal_top_pair(alphas, betas)
    want_theta, want_s = top_pair_oracle(alphas, betas)
    assert theta.hex() == float(want_theta).hex()
    assert s.shape == want_s.shape
    assert np.max(np.abs(np.abs(s) - np.abs(want_s))) <= 1e-14


def test_tridiagonal_top_pair_matches_eigh_tridiagonal():
    rng = np.random.default_rng(7)
    for k in range(1, 601):
        assert_top_pair_matches_oracle(rng.standard_normal(k), rng.uniform(0.0, 1.0, k - 1))
    # Lanczos-like: a positive spectrum with a cluster at the top.
    alphas = 1e6 * (1.0 + rng.uniform(0.0, 1e-6, 300))
    assert_top_pair_matches_oracle(alphas, rng.uniform(0.0, 1e2, 299))


def test_tridiagonal_top_pair_on_one_and_two_steps():
    theta, s = rkstab.bounds._tridiagonal_top_pair(np.array([3.5]), np.empty(0))
    assert theta == 3.5 and np.array_equal(s, [1.0])
    assert_top_pair_matches_oracle(np.array([3.5]), np.empty(0))
    assert_top_pair_matches_oracle(np.array([1.0, 2.0]), np.array([0.5]))
    assert_top_pair_matches_oracle(np.array([2.0, 2.0]), np.array([1e-300]))


def test_tridiagonal_top_pair_on_split_blocks():
    # Off-diagonals of 1e-300 split T into blocks; the top eigenvalue sits
    # in a middle block, so its vector is wrong unless dstein is given the
    # block of the eigenvalue and the block ends dstebz found.
    rng = np.random.default_rng(3)
    for k in (5, 40, 200):
        alphas = rng.standard_normal(k)
        betas = rng.uniform(0.5, 1.0, k - 1)
        betas[::7] = 1e-300 * rng.uniform(0.5, 2.0, betas[::7].size)
        alphas[k // 2] += 10.0
        assert_top_pair_matches_oracle(alphas, betas)
        theta, s = rkstab.bounds._tridiagonal_top_pair(alphas, betas)
        block = np.nonzero(np.abs(s) > 0)[0]
        assert k // 2 in block and block.size < k
    assert_top_pair_matches_oracle(rng.standard_normal(50), np.full(49, 1e-300))


def small_2d_p2(policy):
    elem = build_reference_element(2, 2)
    D = DiffusionField.rotated_anisotropic(0.5, (1.0, 50.0))
    return assemble_system(structured_triangular(8, 8), elem, D, policy)


def solver_args(solver, system):
    """lambda_max_with_vector reads the system; lambda_max_generalized its matrices."""
    return (system,) if solver is lambda_max_with_vector else (system.stiffness, system.surrogate_mass)


@pytest.mark.parametrize("solver", [lambda_max_generalized, lambda_max_with_vector],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("policy", [HRZ_DIAGONAL, CONSISTENT], ids=lambda p: p.kind)
def test_eigensolve_never_applies_the_surrogate(policy, solver):
    system = small_2d_p2(policy)
    counted = dataclasses.replace(system, surrogate_mass=CountingCSR(system.surrogate_mass))
    result = solver(*solver_args(solver, counted))
    assert counted.surrogate_mass.applications == 0
    plain = solver(*solver_args(solver, system))
    flat = lambda r: np.hstack(r if isinstance(r, tuple) else [r])
    assert np.array_equal(flat(result), flat(plain))


def test_diagonal_surrogate_eigensolve_keeps_the_operator_count():
    # 60 applications of A, one per Lanczos step up to the converged check at
    # step 60.  ARPACK's implicitly restarted solve made 61 here.
    system = small_2d_p2(HRZ_DIAGONAL)
    stiffness = CountingCSR(system.stiffness)
    lambda_max_generalized(stiffness, system.surrogate_mass)
    assert stiffness.applications == 60
    assert stiffness.applications < 61


def test_report_and_eigenvector_share_one_forward_run(monkeypatch):
    # The report's value takes 60 applications of A.  The eigenvector reads
    # the same forward run and only replays its 60 steps, as often as it is
    # asked.  Each eigensolve, the system's and lambda_max_generalized's,
    # checks the pencil once.
    checks = []
    pencil_diagonals = rkstab.bounds._pencil_diagonals
    monkeypatch.setattr(rkstab.bounds, "_pencil_diagonals",
                        lambda *pencil: checks.append(pencil) or pencil_diagonals(*pencil))
    system = small_2d_p2(HRZ_DIAGONAL)
    counted = dataclasses.replace(system, stiffness=CountingCSR(system.stiffness))
    report = compute_bound_report(counted.mesh, counted.elem, counted.diffusion,
                                  counted.policy, system=counted)
    assert counted.stiffness.applications == 60
    lam, x = lambda_max_with_vector(counted)
    assert counted.stiffness.applications == 60 + 60
    assert lam == report.lambda_max_exact
    assert lam == lambda_max_generalized(system.stiffness, system.surrogate_mass)
    again, y = lambda_max_with_vector(counted)
    assert counted.stiffness.applications == 60 + 60 + 60
    assert again == lam and x.tobytes() == y.tobytes()
    assert len(counted._eigensolution) == 1
    assert len(checks) == 2


def seeded_start(seed):
    """A _start_vector that draws from default_rng(seed), boosted as the
    eigensolve's own start is."""
    def start(ratios):
        v0 = np.random.default_rng(seed).standard_normal(ratios.size)
        v0[np.argmax(ratios)] += 1.0
        return v0

    return start


def from_each_start(system, seeds, monkeypatch):
    """lambda_max_with_vector of a fresh copy of system from each seeded start."""
    pairs = []
    for seed in seeds:
        monkeypatch.setattr(rkstab.bounds, "_start_vector", seeded_start(seed))
        pairs.append(lambda_max_with_vector(dataclasses.replace(system)))
    return pairs


@pytest.mark.parametrize("policy", [HRZ_DIAGONAL, CONSISTENT], ids=lambda p: p.kind)
def test_eigenvector_sign_is_fixed(policy, monkeypatch):
    # The seed changes the start vector's sign pattern; the returned vector's
    # largest entry in magnitude is positive whatever the start.
    system = small_2d_p2(policy)
    vectors = [x for _, x in from_each_start(system, range(6), monkeypatch)]
    for x in vectors:
        assert x[np.argmax(np.abs(x))] > 0
        assert np.allclose(x, vectors[0], rtol=0, atol=1e-6 * np.max(np.abs(x)))


PENCIL_CASES = [
    (d, m, policy)
    for d in (1, 2)
    for m in (1, 2, 3)
    for policy in (CONSISTENT, HRZ_DIAGONAL, NODE_QUADRATURE)
    # quadratic triangles have nonpositive nodal quadrature weights
    if not (d == 2 and m == 2 and policy is NODE_QUADRATURE)
]
# Cells per side giving at most 200 free DOFs, by (dimension, order).
PENCIL_SIZES = {(1, 1): 150, (1, 2): 80, (1, 3): 50, (2, 1): 12, (2, 2): 7, (2, 3): 4}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d,m,policy", PENCIL_CASES,
                         ids=lambda v: getattr(v, "kind", str(v)))
def test_lambda_max_with_vector_is_an_eigenpair(d, m, policy, seed):
    rng = np.random.default_rng(seed)
    n = PENCIL_SIZES[d, m]
    elem = build_reference_element(d, m)
    if d == 1:
        mesh, D = uniform_interval(n), identity(1)
        jiggle = rng.uniform(-0.3 / n, 0.3 / n, size=(n + 1, 1))
        jiggle[[0, -1]] = 0.0
        mesh = dataclasses.replace(mesh, vertices=mesh.vertices + jiggle)
    else:
        mesh = (random_perturbed(n, n, 0.24 / n, seed=seed) if seed == 0
                else stretched(n, n, float(rng.uniform(2.0, 50.0))))
        D = DiffusionField.rotated_anisotropic(rng.uniform(0, np.pi), (1.0, rng.uniform(1, 100)))
    system = assemble_system(mesh, elem, D, policy)
    assert 2 <= system.n_dofs <= 200
    assert_top_eigenpair(system)


@pytest.mark.parametrize("policy", [CONSISTENT, HRZ_DIAGONAL, NODE_QUADRATURE],
                         ids=lambda p: p.kind)
def test_lambda_max_with_vector_is_an_eigenpair_on_one_dof(policy):
    system = assemble_system(uniform_interval(2), build_reference_element(1, 1),
                             identity(1), policy)
    assert system.n_dofs == 1
    assert_top_eigenpair(system)


def assert_top_eigenpair(system):
    lam, x = lambda_max_with_vector(system)
    A, Mt = system.stiffness, system.surrogate_mass
    dense = lambda_max_dense(A, Mt)
    assert abs(lam - dense) <= 1e-10 * dense
    assert abs(x @ (Mt @ x) - 1.0) <= 1e-12
    assert x[np.argmax(np.abs(x))] > 0
    r = A @ x - lam * (Mt @ x)
    assert math.sqrt(r @ np.linalg.solve(Mt.toarray(), r)) <= 1e-8 * lam


def test_banded_lambda_max_identical_across_blas_threads():
    """A 1D P3 consistent pencil (band 3, unblocked dpbtrf) and a strip whose
    band is above 32, where dpbtrf calls blocked BLAS-3 code, give the same
    bytes at 1 and 2 BLAS threads: the value, and the 1D eigenvector.

    A triangle P3 strip meets the band rule only below a band of 32 (a 40x4
    strip has band 42 against a limit of 28), so the strip is a tensor
    product: 1D P3 consistent along it, and across it nine modes coupled by
    the dense inverse of tridiag(-1, 2, -1).  Its top eigenvalue is the sum
    of the two factors' tops.
    """
    script = (
        "import hashlib, numpy as np, scipy.sparse as sp\n"
        "from rkstab import *\n"
        "from rkstab.assembly import CONSISTENT, band_renumbering\n"
        "s = assemble_system(uniform_interval(1000), build_reference_element(1, 3),\n"
        "                    DiffusionField.constant(np.eye(1)), CONSISTENT)\n"
        "lam, x = lambda_max_with_vector(s)\n"
        "print(lambda_max_generalized(s.stiffness, s.surrogate_mass).hex(), lam.hex(),\n"
        "      hashlib.sha256(x.tobytes()).hexdigest())\n"
        "s = assemble_system(uniform_interval(200), build_reference_element(1, 3),\n"
        "                    DiffusionField.constant(np.eye(1)), CONSISTENT)\n"
        "across = np.linalg.inv(2 * np.eye(9) - np.eye(9, k=1) - np.eye(9, k=-1))\n"
        "A = sp.csr_array(sp.kron(s.stiffness, sp.eye_array(9))\n"
        "                 + sp.kron(s.surrogate_mass, sp.csr_array(across)))\n"
        "Mt = sp.csr_array(sp.kron(s.surrogate_mass, sp.eye_array(9)))\n"
        "strip = lambda_max_generalized(A, Mt)\n"
        "top = lambda_max_generalized(s.stiffness, s.surrogate_mass) + np.linalg.eigvalsh(across)[-1]\n"
        "assert band_renumbering(A, Mt)[2] > 32 and abs(strip - top) <= 1e-13 * top\n"
        "print(strip.hex())\n"
    )
    package_root = str(Path(rkstab.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=package_root,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_lambda_max_identical_across_blas_threads():
    script = (
        "from rkstab import *\n"
        "elem = build_reference_element(2, 2)\n"
        "D = DiffusionField.rotated_anisotropic(0.5, (1.0, 50.0))\n"
        "s = assemble_system(structured_triangular(24, 24), elem, D, HRZ_DIAGONAL)\n"
        "print(lambda_max_generalized(s.stiffness, s.surrogate_mass).hex())\n"
    )
    package_root = str(Path(rkstab.__file__).resolve().parent.parent)
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=package_root,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        values.append(proc.stdout.strip())
    assert values[0] == values[1]


def test_non_spd_pencil_rejected():
    """A pencil matrix that is not positive definite raises ValueError, never a
    wrong value: A or a diagonal surrogate with a negative entry, and
    surrogates with a positive diagonal on both factorising paths (a band that
    banded Cholesky takes, and an arrow that SuperLU takes, indefinite or
    exactly singular)."""
    bad = sp.csr_array(sp.diags_array([[-1.0, 1.0]], offsets=[0]))
    eye = sp.csr_array(sp.eye_array(2))
    with pytest.raises(ValueError):
        lambda_max_generalized(bad, eye)
    with pytest.raises(ValueError):
        lambda_max_generalized(eye, bad)
    # eigenvalues -1, 1 and 3; an LU solve without the pivot-sign check gives lambda 22.08
    banded = sp.csr_array(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    # eigenvalues 1 -+ sqrt(19) and 1; its band of 9 or more fails the fill rule
    arrow = np.eye(20)
    arrow[0, 1:] = arrow[1:, 0] = 1.0
    singular = arrow.copy()
    singular[0, 0] = 19.0  # its last pivot is exactly 0
    laplacian = lambda n: sp.csr_array(sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1],
                                                      shape=(n, n)))
    for surrogate in (banded, sp.csr_array(arrow), sp.csr_array(singular)):
        assert np.linalg.eigvalsh(surrogate.toarray())[0] < 1e-12 < surrogate.diagonal().min()
        with pytest.raises(ValueError, match="not positive definite"):
            lambda_max_generalized(laplacian(surrogate.shape[0]), surrogate)


def test_banded_pencil_refuses_an_indefinite_surrogate_with_one_factorisation(monkeypatch):
    """The banded path factors Mt once and raises before any shift of the
    bisection: no sigma is doubled toward overflow."""
    calls = []
    for module in (rkstab.assembly, rkstab.bounds):
        def counted(*args, _module=module, _original=module.dpbtrf, **kwargs):
            calls.append(_module.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "dpbtrf", counted)
    A = sp.csr_array(sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(3, 3)))
    surrogate = sp.csr_array(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="not positive definite"):
        lambda_max_generalized(A, surrogate)
    assert calls == ["rkstab.assembly"]


def test_pencil_with_a_non_finite_entry_raises():
    # dpbtrf completes on a NaN, so without the check the banded pencil gave
    # lambda 3.0 and the infinite one gave inf, silently.  The arrow pencil
    # fails the band rule and runs Lanczos.
    eye = sp.csr_array(sp.eye_array(3))
    arrow = np.eye(20) * 4.0
    arrow[0, 1:] = arrow[1:, 0] = 0.1
    for value in (np.nan, np.inf):
        A = sp.csr_array(np.array([[2.0, value, 0.0], [value, 2.0, -1.0], [0.0, -1.0, 2.0]]))
        with pytest.raises(ValueError, match="finite"):
            lambda_max_generalized(A, eye)
        with pytest.raises(ValueError, match="finite"):
            lambda_max_generalized(eye, A)
        wide = arrow.copy()
        wide[5, 0] = wide[0, 5] = value
        with pytest.raises(ValueError, match="finite"):
            lambda_max_generalized(sp.csr_array(wide), sp.csr_array(sp.eye_array(20)))


def banded_cases():
    """Pencils that meet the band rule: 1D P1-P3 under three policies, and
    structured 8x8 P1 with D = I, whose stiffness stores fewer entries than
    its consistent mass."""
    cases = {f"1d-p{m}-{policy.kind}": assemble_system(
        uniform_interval(40), build_reference_element(1, m), identity(1), policy)
        for m in (1, 2, 3) for policy in (CONSISTENT, HRZ_DIAGONAL, NODE_QUADRATURE)}
    for policy in (CONSISTENT, HRZ_DIAGONAL):
        cases[f"8x8-p1-{policy.kind}"] = assemble_system(
            structured_triangular(8, 8), build_reference_element(2, 1), identity(2), policy)
    return cases


BANDED_CASES = banded_cases()


def cholesky_succeeds(sigma, A, Mt):
    renumbering = band_renumbering(A, Mt)
    stiffness, mass = upper_band_storage(A, renumbering), upper_band_storage(Mt, renumbering)
    return dpbtrf(sigma * mass - stiffness)[1] == 0


@pytest.mark.parametrize("name", BANDED_CASES)
def test_banded_bisection_returns_the_upper_end_of_a_one_ulp_bracket(name):
    # dpbtrf of sigma Mt - A fails at the largest diagonal ratio, where the
    # bracket starts, and at the float just below the returned value, and
    # succeeds at the value itself, which is dense eigh's to a few ulps.
    system = BANDED_CASES[name]
    A, Mt = system.stiffness, system.surrogate_mass
    assert band_renumbering(A, Mt) is not None
    lam = lambda_max_generalized(A, Mt)
    assert not cholesky_succeeds(float(np.max(A.diagonal() / Mt.diagonal())), A, Mt)
    assert not cholesky_succeeds(np.nextafter(lam, 0.0), A, Mt)
    assert cholesky_succeeds(lam, A, Mt)
    dense = lambda_max_dense(A, Mt)
    assert abs(lam - dense) <= 1e-14 * dense


def test_banded_pencil_bands_the_union_pattern():
    # With D = I the structured P1 stiffness sums its hypotenuse couplings
    # to exact zeros, which assembly drops, so A stores fewer entries than
    # the consistent mass.  Renumbered by A's pattern alone, some entry of
    # Mt falls outside A's band; the union's band holds both.
    system = BANDED_CASES["8x8-p1-consistent"]
    A, Mt = system.stiffness, system.surrogate_mass
    assert A.nnz < Mt.nnz
    _, position, band = band_renumbering(A)
    rows = position[np.repeat(np.arange(Mt.shape[0]), np.diff(Mt.indptr))]
    assert np.abs(rows - position[Mt.indices]).max() > band
    lam = lambda_max_generalized(A, Mt)
    dense = lambda_max_dense(A, Mt)
    assert abs(lam - dense) <= 1e-14 * dense


def test_banded_lambda_max_matches_the_band_oracle_at_12k_dofs():
    system, oracle = p3_hrz(4000)
    assert system.n_dofs == 11999
    lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    assert abs(lam - oracle) <= 1e-13 * oracle


def test_banded_pencil_never_runs_lanczos_and_ignores_the_seed(monkeypatch):
    def no_lanczos(*args):
        raise AssertionError("a banded pencil ran Lanczos")

    # The start vector, whatever seed draws it, and the Lanczos cap move
    # neither the value nor, beyond roundoff, the vector.
    monkeypatch.setattr(rkstab.bounds, "_lanczos", no_lanczos)
    monkeypatch.setattr(rkstab.bounds, "_MAX_OPS", 1)
    mesh, elem = uniform_interval(60), build_reference_element(1, 3)
    system = assemble_system(mesh, elem, identity(1), CONSISTENT)
    counted = dataclasses.replace(system, stiffness=CountingCSR(system.stiffness))
    values = {lambda_max_generalized(counted.stiffness, counted.surrogate_mass),
              compute_bound_report(mesh, elem, counted.diffusion, CONSISTENT,
                                   system=counted).lambda_max_exact}
    vectors = [lambda_max_with_vector(counted)]
    assert len(counted._eigensolution) == 1
    vectors += from_each_start(counted, (0, 1, 7), monkeypatch)
    values.update(lam for lam, _ in vectors)
    assert len(values) == 1
    assert counted.stiffness.applications == 0
    for _, x in vectors:
        assert np.allclose(x, vectors[0][1], rtol=0, atol=1e-12 * np.max(np.abs(x)))


def test_diag_ratio_bounds_1d_lumped():
    system, elem = lumped_1d_system(8)
    lower, upper = diag_ratio_bounds(system)
    h = 1.0 / 8
    assert abs(lower - 2.0 / h**2) < 1e-10
    # eta = 2 and the lumped reference matrix is a multiple of the identity
    assert abs(upper - 4.0 / h**2) < 1e-10
    lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    assert lower <= lam * (1 + 1e-12)
    assert lam <= upper * (1 + 1e-12)


def test_diag_ratio_bounds_1d_consistent():
    mesh = uniform_interval(8)
    elem = build_reference_element(1, 1)
    system = assemble_system(mesh, elem, identity(1), CONSISTENT)
    lower, upper = diag_ratio_bounds(system)
    h = 1.0 / 8
    assert abs(lower - 3.0 / h**2) < 1e-10  # (2/h) / (4h/6)
    assert abs(upper - 18.0 / h**2) < 1e-9  # eta=2, kappa=3
    lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
    assert lower <= lam <= upper


def test_is_m_matrix():
    system, _ = lumped_1d_system(10)
    assert is_m_matrix(system.stiffness)
    mesh = random_perturbed(3, 3, 0.05, seed=1)
    elem = build_reference_element(2, 2)
    sys2 = assemble_system(mesh, elem, identity(2), CONSISTENT)
    # quadratic simplex stiffness has positive off-diagonal couplings
    assert not is_m_matrix(sys2.stiffness)


def coo_m_matrix_oracle(matrix, tol=1e-12):
    """The sign-structure test on a COO copy, comparing row and column indices."""
    coo = matrix.tocoo()
    scale = float(np.max(np.abs(coo.data))) if coo.nnz else 1.0
    off = coo.coords[0] != coo.coords[1]
    if np.any(coo.data[off] > tol * scale):
        return False
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    return bool(np.all(row_sums >= -tol * scale))


def m_matrix_edge_cases():
    tol = 1e-12
    cut = tol * 2.0  # every case below has max |entry| = 2
    base = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    above, below = base.copy(), base.copy()
    above[0, 2] = above[2, 0] = 1.01 * cut
    below[0, 2] = below[2, 0] = 0.99 * cut
    # row 1 stores no diagonal; with a positive coupling in it, and without
    positive_no_diag = np.array([[2.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 2.0]])
    negative_no_diag = np.array([[2.0, 0.0, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 2.0]])
    # a diagonal entry in (0, cut] beside a positive coupling above cut
    tiny_diagonal = np.diag([2.0, 0.5 * cut, 2.0])
    tiny_diagonal[1, 2] = 1.01 * cut
    inside, outside = base.copy(), base.copy()
    inside[0, 0] = 1.0 - 0.5 * cut    # row sum -0.5 cut
    outside[0, 0] = 1.0 - 2.0 * cut   # row sum -2 cut
    return {
        "off_diagonal_above_cut": (sp.csr_array(above), False),
        "off_diagonal_below_cut": (sp.csr_array(below), True),
        "positive_row_without_stored_diagonal": (sp.csr_array(positive_no_diag), False),
        "negative_row_without_stored_diagonal": (sp.csr_array(negative_no_diag), False),
        "empty_row_without_stored_diagonal": (
            sp.csr_array(np.diag([2.0, 0.0, 2.0])), True),
        "stored_zero_diagonal": (sp.csr_array(
            (np.array([2.0, 0.0, 2.0]), np.arange(3), np.arange(4)), shape=(3, 3)), True),
        "tiny_diagonal_beside_positive_coupling": (sp.csr_array(tiny_diagonal), False),
        "tiny_diagonal_alone": (sp.csr_array(np.diag([2.0, 0.5 * cut, 2.0])), True),
        "row_sum_inside_cut": (sp.csr_array(inside), True),
        "row_sum_outside_cut": (sp.csr_array(outside), False),
        "empty": (sp.csr_array((4, 4)), True),
        "empty_0x0": (sp.csr_array((0, 0)), True),
        "positive_diagonal_only": (sp.csr_array(np.diag([2.0, 1.0])), True),
    }


@pytest.mark.parametrize("case", list(m_matrix_edge_cases()))
def test_is_m_matrix_matches_coo_oracle_on_edge_cases(case):
    matrix, expected = m_matrix_edge_cases()[case]
    assert coo_m_matrix_oracle(matrix) is expected
    assert is_m_matrix(matrix) is expected


@pytest.mark.parametrize("d, order, policy", [
    (1, 1, HRZ_DIAGONAL), (1, 2, CONSISTENT), (2, 1, CONSISTENT), (2, 2, HRZ_DIAGONAL),
])
def test_is_m_matrix_matches_coo_oracle_on_assembled_matrices(d, order, policy):
    mesh = uniform_interval(9) if d == 1 else random_perturbed(4, 4, 0.05, seed=2)
    elem = build_reference_element(d, order)
    D = identity(d) if d == 1 else DiffusionField.rotated_anisotropic(0.3, (1.0, 3.0))
    system = assemble_system(mesh, elem, D, policy)
    for matrix in (system.stiffness, system.mass, system.surrogate_mass):
        assert is_m_matrix(matrix) is coo_m_matrix_oracle(matrix)
    assert is_m_matrix(system.stiffness) is (order == 1 and d == 1)


def test_is_m_matrix_reads_duplicates_by_their_sum():
    # the diagonal of row 0 is stored twice, as 1.5 and 0.5
    matrix = sp.csr_array(
        (np.array([1.5, -1.0, 0.5, -1.0, 2.0]), np.array([0, 1, 0, 0, 1]), np.array([0, 3, 5])),
        shape=(2, 2),
    )
    data = matrix.data.copy()
    assert not matrix.has_canonical_format
    canonical = matrix.copy()
    canonical.sum_duplicates()
    assert is_m_matrix(matrix) is is_m_matrix(canonical) is True
    np.testing.assert_array_equal(matrix.data, data)


def diagonal_reads(monkeypatch):
    """Count every diagonal() read of a CSR array."""
    reads = []
    original = sp.csr_array.diagonal

    def counted(self, k=0):
        reads.append(k)
        return original(self, k)

    monkeypatch.setattr(sp.csr_array, "diagonal", counted)
    return reads


def duplicated_m_matrix():
    """The M-matrix tridiag(-1, 2, -1) of order 3, each entry stored as two halves."""
    dense = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    rows, cols = np.nonzero(dense)
    indptr = 2 * np.searchsorted(rows, np.arange(4))
    return sp.csr_array((np.repeat(0.5 * dense[rows, cols], 2), np.repeat(cols, 2), indptr),
                        shape=(3, 3))


@pytest.mark.parametrize("case, expected, reads", [
    ("p1-identity", True, 1),
    ("p1-rotated", False, 0),
    ("p2-identity", False, 0),
    ("duplicates", True, 1),
])
def test_is_m_matrix_reads_the_diagonal_only_when_it_decides(monkeypatch, case, expected, reads):
    """More positive entries than rows decide False before the diagonal is read."""
    if case == "duplicates":
        matrix = duplicated_m_matrix()
        assert not matrix.has_canonical_format
    else:
        order = 2 if case.startswith("p2") else 1
        D = (DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
             if case == "p1-rotated" else identity(2))
        matrix = assemble_system(structured_triangular(6, 6),
                                 build_reference_element(2, order), D, HRZ_DIAGONAL).stiffness
    assert coo_m_matrix_oracle(matrix) is expected
    counted = diagonal_reads(monkeypatch)
    assert is_m_matrix(matrix) is expected
    assert len(counted) == reads


def test_reports_read_each_system_diagonal_once(monkeypatch):
    """A and M-tilde's diagonals are cached, read-only arrays: two reports
    read each once (the P2 stiffness is decided not an M-matrix unread)."""
    mesh, elem, D = structured_triangular(6, 6), build_reference_element(2, 2), identity(2)
    system = assemble_system(mesh, elem, D, HRZ_DIAGONAL)
    reads = diagonal_reads(monkeypatch)
    first = compute_bound_report(mesh, elem, D, HRZ_DIAGONAL, dof_cap=0, system=system)
    second = compute_bound_report(mesh, elem, D, HRZ_DIAGONAL, dof_cap=0, system=system)
    assert len(reads) == 2
    assert first == second
    assert system.diag_surrogate is system.diag_surrogate
    assert not system.diag_surrogate.flags.writeable
    monkeypatch.undo()
    assert system.diag_surrogate.tobytes() == system.surrogate_mass.diagonal().tobytes()


def test_report_runs_the_public_m_matrix_test(monkeypatch):
    """The report calls bounds.is_m_matrix by its module name, which a tracer can wrap."""
    calls = []
    original = rkstab.bounds.is_m_matrix

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(rkstab.bounds, "is_m_matrix", counted)
    mesh = structured_triangular(4, 4)
    elem, D = build_reference_element(2, 1), identity(2)
    system = assemble_system(mesh, elem, D, HRZ_DIAGONAL)
    report = compute_bound_report(mesh, elem, D, HRZ_DIAGONAL, system=system)
    assert len(calls) == 1 and calls[0] is system.stiffness
    assert report.m_matrix_refinement_applied is True


def test_system_records_its_inputs():
    mesh = structured_triangular(4, 4)
    elem = build_reference_element(2, 2)
    D = DiffusionField.constant(100.0 * np.eye(2))
    system = assemble_system(mesh, elem, D, HRZ_DIAGONAL)
    assert system.mesh is mesh and system.elem is elem and system.diffusion is D
    assert system.policy == HRZ_DIAGONAL
    assert system.l2_growth_bound == math.sqrt(elem.condition_number * system.kappa_surrogate)


@pytest.mark.parametrize("mismatch", ["mesh", "elem", "diffusion", "policy"])
def test_report_refuses_a_system_built_from_other_inputs(mismatch):
    """A P2 HRZ system with D = 100 I, reported with one input not its own.

    With D = I and the consistent policy, such a report once printed an
    upper_geometric below lambda_max, and sandwich_satisfied true."""
    mesh = structured_triangular(8, 8)
    elem = build_reference_element(2, 2)
    D = DiffusionField.constant(100.0 * np.eye(2))
    system = assemble_system(mesh, elem, D, HRZ_DIAGONAL)
    inputs = {"mesh": mesh, "elem": elem, "diffusion": D, "policy": HRZ_DIAGONAL}
    inputs[mismatch] = {
        "mesh": structured_triangular(8, 8),  # equal, but not the system's object
        "elem": build_reference_element(2, 3),
        "diffusion": identity(2),
        "policy": CONSISTENT,
    }[mismatch]
    with pytest.raises(ValueError, match="not assembled from"):
        compute_bound_report(**inputs, system=system)
    own = compute_bound_report(mesh, elem, D, HRZ_DIAGONAL, dof_cap=0, system=system)
    assert own.policy == "hrz_diagonal" and own.order == 2


def test_geometric_bound_1d_hand_values():
    mesh = uniform_interval(8)
    elem = build_reference_element(1, 1)
    h = 1.0 / 8
    lumped = geometric(mesh, elem, identity(1), HRZ_DIAGONAL)
    assert abs(lumped - 4.0 / h**2) < 1e-9
    consistent = geometric(mesh, elem, identity(1), CONSISTENT)
    assert abs(consistent - 12.0 / h**2) < 1e-9


def test_geometric_bound_scales_with_diffusion():
    mesh = structured_triangular(3, 3)
    elem = build_reference_element(2, 1)
    base = geometric(mesh, elem, identity(2), CONSISTENT)
    scaled = geometric(mesh, elem, DiffusionField.constant(5.0 * np.eye(2)), CONSISTENT)
    assert abs(scaled - 5.0 * base) < 1e-10 * scaled


def test_geometric_bound_dominates_lambda_max():
    mesh = random_perturbed(4, 4, 0.05, seed=9)
    elem = build_reference_element(2, 2)
    D = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
    for policy in (CONSISTENT, HRZ_DIAGONAL):
        system = assemble_system(mesh, elem, D, policy)
        lam = lambda_max_generalized(system.stiffness, system.surrogate_mass)
        bound = geometric_bound(system)
        assert lam <= bound * (1 + 1e-9)


def test_geometric_bound_dominates_callable_peaking_at_stiffness_points():
    """A declared degree of 5 lifts the stiffness rule above the element's
    own degree-2 rule; D peaks only at one element's degree-5 points, so the
    bound holds only if the alignment factors sample those same points."""
    mesh = structured_triangular(4, 4)
    elem = build_reference_element(2, 1)
    pts, _ = simplex_quadrature(2, 5)
    coords = mesh.vertices[mesh.elements[12]]
    peaks = pts @ (coords[1:] - coords[0]) + coords[0]

    def bumps(x):
        return (1.0 + 1e4 * np.exp(-np.sum((peaks - x) ** 2, axis=1) / 1e-4).sum()) * np.eye(2)

    D = DiffusionField.from_callable(bumps, degree=5)
    system = assemble_system(mesh, elem, D, HRZ_DIAGONAL)
    lam = lambda_max_dense(system.stiffness, system.surrogate_mass)
    report = compute_bound_report(mesh, elem, D, HRZ_DIAGONAL, system=system)
    assert report.upper_geometric >= lam


def random_mesh(d, order, rng):
    """A seeded perturbed and stretched mesh with at most 200 free DOFs.

    2D: random_perturbed squeezed to aspect ratio up to 1e3.  1D: cells
    graded geometrically up to a 1e3 size ratio, then jiggled."""
    if d == 1:
        n = int(rng.integers(3, 200 // order + 1))
        mesh = uniform_interval(n)
        widths = 10.0 ** (rng.uniform(0.0, 3.0) * np.arange(n) / (n - 1))
        x = np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
        jiggle = rng.uniform(-0.3, 0.3, n - 1)
        x[1:-1] += jiggle * np.minimum(np.diff(x)[:-1], np.diff(x)[1:])
        return dataclasses.replace(mesh, vertices=x[:, None])
    n_max = {1: 15, 2: 7, 3: 5}[order]  # (order * n - 1)^2 <= 200
    n = int(rng.integers(2, n_max + 1))
    # below h/4, where no triangle of the diagonal grid can invert
    mesh = random_perturbed(n, n, rng.uniform(0.0, 0.24) / n, seed=int(rng.integers(1 << 30)))
    ratio = 10.0 ** rng.uniform(0.0, 3.0)
    return dataclasses.replace(mesh, vertices=mesh.vertices * [1.0, 1.0 / ratio])


def random_field(d, kind, rng):
    if kind == "constant":
        root = rng.standard_normal((d, d))
        return DiffusionField.constant(root @ root.T + 0.1 * np.eye(d))
    if kind == "rotated_anisotropic":
        return DiffusionField.rotated_anisotropic(
            rng.uniform(0.0, np.pi), (1.0, 10.0 ** rng.uniform(0.0, 3.0)))
    a, b, c = rng.uniform(0.0, 5.0, 3)
    if d == 1:
        return DiffusionField.from_callable(
            lambda x: np.array([[1.0 + a * x[0] ** 2 + b * np.sin(c * x[0]) ** 2]]),
            degree=int(rng.integers(0, 7)))
    k2 = 10.0 ** rng.uniform(0.0, 3.0)

    def field(x):
        co, si = np.cos(a * x[0] + c * x[1]), np.sin(a * x[0] + c * x[1])
        rot = np.array([[co, -si], [si, co]])
        return (1.0 + b * x[0] * x[1]) * rot @ np.diag([1.0, k2]) @ rot.T

    return DiffusionField.from_callable(field, degree=int(rng.integers(0, 7)))


FIELD_KINDS = ("constant", "rotated_anisotropic", "callable")
PROPERTY_CASES = [
    (d, order, kind, seed)
    for d, kinds in ((1, ("constant", "callable")), (2, FIELD_KINDS))
    for order in (1, 2, 3)
    for kind in kinds
    for seed in range(3)
]


@pytest.mark.parametrize("d, order, kind, seed", PROPERTY_CASES)
def test_certified_bounds_dominate_dense_lambda_max(d, order, kind, seed):
    """upper_diag_ratio and upper_geometric bound lambda_max of the assembled
    pencil for every policy the element allows and every diffusion kind."""
    rng = np.random.default_rng([d, order, seed, FIELD_KINDS.index(kind)])
    mesh = random_mesh(d, order, rng)
    diffusion = random_field(d, kind, rng)
    elem = build_reference_element(d, order)
    checked = 0
    for policy in (CONSISTENT, HRZ_DIAGONAL, NODE_QUADRATURE):
        try:
            system = assemble_system(mesh, elem, diffusion, policy)
        except SurrogateAxiomError:
            continue
        assert system.n_dofs <= 200
        lam = lambda_max_dense(system.stiffness, system.surrogate_mass)
        report = compute_bound_report(mesh, elem, diffusion, policy, dof_cap=0, system=system)
        assert lam <= report.upper_diag_ratio * (1 + 1e-9)
        assert lam <= report.upper_geometric * (1 + 1e-9)
        checked += 1
    assert checked >= 2


def aligned_family(a, n=8):
    """Stretched mesh whose elements match D = diag(1, 1/a^2)."""
    mesh = stretched(n, n, a)
    D = DiffusionField.constant(np.diag([1.0, 1.0 / a**2]))
    return mesh, D


def test_geometric_bound_insensitive_to_aligned_anisotropy():
    elem = build_reference_element(2, 1)
    values = []
    for a in (10.0, 100.0):
        mesh, D = aligned_family(a)
        values.append(geometric(mesh, elem, D, CONSISTENT))
    assert abs(values[1] / values[0] - 1.0) < 1e-12


def test_zhudu_bound_grows_quadratically_on_aligned_family():
    values = []
    for a in (10.0, 100.0):
        mesh, D = aligned_family(a)
        values.append(zhudu_bound(assemble_system(mesh, build_reference_element(2, 1), D)))
    # ratio tracks (100/10)^2 up to an O(1/a^2) shape correction
    assert abs(values[1] / values[0] / 100.0 - 1.0) < 0.05


def test_zhudu_equals_alignment_for_isotropic():
    mesh = stretched(4, 4, 10.0)
    elem = build_reference_element(2, 1)
    system = assemble_system(mesh, elem, identity(2))
    expected = max(element_alignment_factor(system))
    assert abs(zhudu_bound(system) - expected) < 1e-12 * expected


def swirl(x):
    """Rotated 1:100 tensor whose axis and scale vary with position."""
    c, s = np.cos(3.0 * x[0] + x[1]), np.sin(3.0 * x[0] + x[1])
    rot = np.array([[c, -s], [s, c]])
    return (1.0 + x[0] * x[1]) * rot @ np.diag([1.0, 100.0]) @ rot.T


ROTATED = DiffusionField.rotated_anisotropic(0.5, (1.0, 100.0))
PINNED_CASES = {
    "perturbed16-p2-rotated": (lambda: random_perturbed(16, 16, 0.01, seed=1), 2, ROTATED),
    **{f"structured6-p{m}-{name}": (lambda: structured_triangular(6, 6), m, field)
       for m in (1, 2, 3) for name, field in (("identity", identity(2)), ("rotated", ROTATED))},
    "interval9-p3-identity": (lambda: uniform_interval(9), 3, identity(1)),
    "perturbed6-p2-swirl-deg2": (lambda: random_perturbed(6, 6, 0.03, seed=2), 2,
                                 DiffusionField.from_callable(swirl, degree=2)),
}
# float.hex() of upper_geometric and upper_zhudu, and the SHA-256 of the
# alignment factors' bytes.  The structured meshes have exact zeros in
# inv_jacobian.  zhudu_bound forms F'^-1 F'^-T from inv_jacobian alone, with
# no product by an identity's 1 and 0 to change their signs, and its bits
# must still match.  The alignment factors read the system's metric.
PINNED_BITS = {
    "perturbed16-p2-rotated": ("0x1.fe5077da1f792p+27", "0x1.9b4e4a73510e9p+17",
        "4ec6585f06977658a4163ed7a3a71b21cb1816ccd9417f0de9cde6c4f3c871f8"),
    "structured6-p1-identity": ("0x1.a81f1b07628d5p+12", "0x1.78ff3478579a2p+6",
        "71dc9fcbb28298a83d39faf474b05cf0a204f2aeb563c773c2444bb9225cc0c3"),
    "structured6-p1-rotated": ("0x1.28a0f39b7179bp+19", "0x1.268760fe04707p+13",
        "cf1f05806aa62580812d2c5312c01cca3a762a07223bdb23cfe6091cd96c636d"),
    "structured6-p2-identity": ("0x1.1bebac2eadbc3p+17", "0x1.78ff3478579a2p+6",
        "71dc9fcbb28298a83d39faf474b05cf0a204f2aeb563c773c2444bb9225cc0c3"),
    "structured6-p2-rotated": ("0x1.8d254840bf383p+23", "0x1.268760fe04707p+13",
        "cf1f05806aa62580812d2c5312c01cca3a762a07223bdb23cfe6091cd96c636d"),
    "structured6-p3-identity": ("0x1.a19fd4d340f87p+20", "0x1.78ff3478579a2p+6",
        "71dc9fcbb28298a83d39faf474b05cf0a204f2aeb563c773c2444bb9225cc0c3"),
    "structured6-p3-rotated": ("0x1.457a0e4378f96p+27", "0x1.268760fe04707p+13",
        "cf1f05806aa62580812d2c5312c01cca3a762a07223bdb23cfe6091cd96c636d"),
    "interval9-p3-identity": ("0x1.1beb803c51607p+16", "0x1.4400000000007p+6",
        "468b2c5f0b8de6b15e80ed9ddd97797ea8731bbac6762c169f3b7a71d5b3078c"),
    # a callable D, which both bounds read at the stiffness quadrature points only
    "perturbed6-p2-swirl-deg2": ("0x1.b4fb7d2a1a02cp+24", "0x1.2e16f8d11e588p+15",
        "40d7461d695e17ad546d34754c1fc20f84ae15ec905c5c129f2f25ce04f3fca9"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_geometry_bounds_keep_their_bits(name):
    """The geometric and comparison bounds and the alignment factors keep
    their bits across changes to the geometry layout and the closed form."""
    make, m, diffusion = PINNED_CASES[name]
    mesh = make()
    elem = build_reference_element(mesh.dimension, m)
    system = assemble_system(mesh, elem, diffusion)
    align = element_alignment_factor(system)
    bits = (geometric_bound(system).hex(), zhudu_bound(system).hex(),
            hashlib.sha256(align.tobytes()).hexdigest())
    assert bits == PINNED_BITS[name]


def test_rotation_invariance():
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    base = random_perturbed(3, 3, 0.04, seed=12)
    rotated = dataclasses.replace(base, vertices=base.vertices @ rot.T)
    elem = build_reference_element(2, 1)
    D0 = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 50.0))
    D1 = DiffusionField.constant(rot @ D0.matrix @ rot.T)
    sys0 = assemble_system(base, elem, D0, CONSISTENT)
    sys1 = assemble_system(rotated, elem, D1, CONSISTENT)
    lam0 = lambda_max_dense(sys0.stiffness, sys0.surrogate_mass)
    lam1 = lambda_max_dense(sys1.stiffness, sys1.surrogate_mass)
    assert abs(lam0 - lam1) < 1e-10 * lam0
    g0 = geometric_bound(sys0)
    g1 = geometric_bound(sys1)
    assert abs(g0 - g1) < 1e-10 * g0
    z0 = zhudu_bound(sys0)
    z1 = zhudu_bound(sys1)
    assert abs(z0 - z1) < 1e-10 * z0


MATRIX_INEQUALITY_CHECKS = [
    "diagonal_domination", "patch_volume_lower", "patch_volume_upper",
    "diagonal_sandwich_lower", "diagonal_sandwich_upper",
]


@pytest.mark.parametrize("d,m,make,policy,diffusion", [
    (1, 1, lambda: uniform_interval(10), HRZ_DIAGONAL, identity(1)),
    (1, 2, lambda: uniform_interval(10), CONSISTENT, identity(1)),
    (2, 1, lambda: structured_triangular(3, 3), CONSISTENT, identity(2)),
    (2, 2, lambda: random_perturbed(3, 3, 0.05, seed=3), HRZ_DIAGONAL, identity(2)),
    (2, 1, lambda: structured_triangular(16, 16), HRZ_DIAGONAL, identity(2)),
    (1, 3, lambda: uniform_interval(1000), CONSISTENT, identity(1)),
    (2, 2, lambda: random_perturbed(64, 64, 0.003, seed=3), HRZ_DIAGONAL,
     DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 50.0))),
], ids=["1d-p1-hrz", "1d-p2-consistent", "2d-p1-consistent", "2d-p2-hrz", "2d-p1-16x16-hrz",
        "1d-p3-n1000-consistent", "2d-p2-64x64-hrz-rotated"])
def test_matrix_inequalities_hold(d, m, make, policy, diffusion):
    elem = build_reference_element(d, m)
    system = assemble_system(make(), elem, diffusion, policy)
    assert verify_matrix_inequalities(system) == MATRIX_INEQUALITY_CHECKS


def test_sparse_path_finds_violation_random_forms_miss():
    """One stiffness diagonal entry scaled by 0.05 breaks eta diag(A) >= A.

    1000 random quadratic forms read a margin of +0.633 here; the smallest
    eigenvalue over scale is -0.011.  The inertia count finds the violation,
    and one product with its witness shows it.
    """
    mesh = structured_triangular(24, 24)
    elem = build_reference_element(2, 1)
    system = assemble_system(mesh, elem, identity(2), HRZ_DIAGONAL)
    stiffness = system.stiffness.tolil()
    mid = system.n_dofs // 2
    stiffness[mid, mid] *= 0.05
    tampered = dataclasses.replace(system, stiffness=sp.csr_array(stiffness))
    assert tampered.n_dofs == 529
    with pytest.raises(InequalityViolation) as info:
        verify_matrix_inequalities(tampered)
    violation, tol = info.value, 1e-10
    assert violation.name == "diagonal_domination"
    x = violation.witness
    assert x.shape == (tampered.n_dofs,)
    stiffness = tampered.stiffness.toarray()
    lhs = elem.node_count * np.diag(np.diag(stiffness))
    diff = lhs - stiffness
    scale = max(np.linalg.norm(lhs, np.inf), np.linalg.norm(stiffness, np.inf))
    assert x @ diff @ x < -tol * scale * (x @ x)
    lambda_min = np.linalg.eigvalsh(diff)[0] / scale
    assert lambda_min == pytest.approx(-0.011, abs=1e-3)
    assert -tol > violation.margin >= lambda_min


def test_inertia_count_refuses_an_off_diagonal_pivot():
    """A zero diagonal forces an off-diagonal pivot, which leaves the inertia unread."""
    with pytest.raises(np.linalg.LinAlgError, match="off-diagonal pivot"):
        _negative_direction(sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])))


def test_matrix_inequality_violation_reported():
    system, elem = lumped_1d_system(6)
    tampered = dataclasses.replace(system, surrogate_lambda_min=100.0)
    with pytest.raises(InequalityViolation) as info:
        verify_matrix_inequalities(tampered)
    assert info.value.name == "patch_volume_lower"
    assert info.value.witness.shape == (system.n_dofs,)


def test_cross_policy_sandwich():
    """Any two surrogates bound each other through their reference extremes."""
    mesh = random_perturbed(3, 3, 0.05, seed=17)
    elem = build_reference_element(2, 1)
    sys_a = assemble_system(mesh, elem, identity(2), CONSISTENT)
    sys_b = assemble_system(mesh, elem, identity(2), HRZ_DIAGONAL)
    rng = np.random.default_rng(99)
    for _ in range(200):
        v = rng.standard_normal(sys_a.n_dofs)
        qa = v @ (sys_a.surrogate_mass @ v)
        qb = v @ (sys_b.surrogate_mass @ v)
        lo = sys_a.surrogate_lambda_min / sys_b.surrogate_lambda_max
        hi = sys_a.surrogate_lambda_max / sys_b.surrogate_lambda_min
        assert lo * qb <= qa * (1 + 1e-12)
        assert qa <= hi * qb * (1 + 1e-12)


def test_bound_report_derives_nothing_again(monkeypatch):
    """Given a system, the report reads its geometry, numbering, patches,
    surrogate spectrum and metric G instead of building any of them a second
    time; the one assemble_system forms G once."""
    mesh = random_perturbed(4, 4, 0.05, seed=5)
    elem = build_reference_element(2, 2)
    D = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
    calls = []
    for name, original in [
        ("build_patches", rkstab.mesh.build_patches),
        ("build_affine_maps", rkstab.mesh.build_affine_maps),
        ("number_dofs", rkstab.mesh.number_dofs),
        ("surrogate_reference_matrix", rkstab.assembly.surrogate_reference_matrix),
        ("_metric", rkstab.assembly._metric),
    ]:
        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (rkstab.bounds, rkstab.assembly, rkstab.mesh):
            monkeypatch.setattr(module, name, counted, raising=False)
    system = assemble_system(mesh, elem, D, HRZ_DIAGONAL)
    assert calls.count("_metric") == 1
    calls.clear()
    compute_bound_report(mesh, elem, D, HRZ_DIAGONAL, dof_cap=0, system=system)
    assert calls == []


def test_bound_report_sandwich_and_serialization():
    mesh = structured_triangular(4, 4)
    elem = build_reference_element(2, 1)
    report = compute_bound_report(mesh, elem, identity(2), HRZ_DIAGONAL)
    lam = report.lambda_max_exact
    assert report.lower_diag_ratio <= lam * (1 + 1e-9)
    assert lam <= report.upper_diag_ratio * (1 + 1e-9)
    assert lam <= report.upper_geometric * (1 + 1e-9)
    assert report.tightness_lower >= 1.0 - 1e-12
    assert report.tightness_upper >= 1.0 - 1e-12
    row = report.csv_row()
    assert len(row) == len(BOUND_CSV_FIELDS)
    parsed = json.loads(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    assert parsed["n_dofs"] == report.n_dofs
    assert parsed["policy"] == "hrz_diagonal"


def test_bound_report_respects_dof_cap():
    mesh = structured_triangular(4, 4)
    elem = build_reference_element(2, 1)
    report = compute_bound_report(mesh, elem, identity(2), CONSISTENT, dof_cap=5)
    assert report.lambda_max_exact is None
    assert report.tightness_lower is None
    assert report.csv_row()[BOUND_CSV_FIELDS.index("lambda_max_exact")] == ""


def test_bound_report_m_matrix_refinement():
    system, elem = lumped_1d_system(8)
    mesh = uniform_interval(8)
    report = compute_bound_report(mesh, elem, identity(1), HRZ_DIAGONAL)
    assert report.m_matrix_refinement_applied
    # eta = 2 in 1D P1, so the refined factor coincides with the plain one
    assert abs(report.upper_diag_ratio_refined - report.upper_diag_ratio) < 1e-12
    assert report.lambda_max_exact <= report.upper_diag_ratio_refined * (1 + 1e-9)


def test_bound_report_deterministic():
    mesh = random_perturbed(3, 3, 0.05, seed=21)
    elem = build_reference_element(2, 1)
    D = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))
    a = json.dumps(compute_bound_report(mesh, elem, D, CONSISTENT).to_dict(),
                   sort_keys=True, indent=2)
    b = json.dumps(compute_bound_report(mesh, elem, D, CONSISTENT).to_dict(),
                   sort_keys=True, indent=2)
    assert a == b
