"""Explicit Runge-Kutta integration of semidiscrete diffusion systems.

The systems produced by :mod:`rkstab.assembly` have the form

    M-tilde U'(t) = -A U(t),

with the surrogate mass on the left-hand side.  For a linear autonomous
system every explicit Runge-Kutta method reduces to multiplication by its
stability polynomial: U_{n+1} = R(-tau * M-tilde^-1 A) U_n.  The stepper
exploits that directly (Horner evaluation, one operator application per
stage), which matches the classical stage-by-stage update up to roundoff.
tau * M-tilde^-1 is set up once per run: folded into a scaled copy of the
stiffness for a diagonal surrogate, otherwise the system's one factorization,
AssembledSystem.surrogate_solve (banded Cholesky for a narrow band, as every
1D mass has, SuperLU for a 2D mass), which a Lanczos eigensolve shares.
The first stage of each step reuses the stiffness product the energy norm
of the previous step already took, so an s-stage step costs s stiffness
products and one mass product, norm monitoring included.

Each operator a run applies many times (A and M for the norms, the scaled
stage matrix) is stored by its pattern.  A canonical CSR matrix whose d
distinct diagonals fill it, d * n <= 1.25 * nnz, becomes a dia_array, which
reads no column indices; P1 patterns qualify.  Any other matrix stays CSR:
P2 and P3 number vertices first, which scatters their entries over
diagonals that are mostly empty.  The two products give the same bytes.  The CSR
product sums each row in ascending column order from +0; the DIA product
adds the diagonals in ascending offset order, the same column order, also
from +0, and each padding entry adds 0 * x_j, which leaves a finite sum as
it was.

Norm monitoring deliberately uses the *consistent* mass for the L2 norm
and the stiffness for the energy norm, whatever surrogate drives the
stepping.  Stable runs keep the energy norm non-increasing, while the L2
norm may grow transiently; `l2_growth_certificate` checks the observed
growth against the a priori bound sqrt(kappa(M-hat) * kappa(M-tilde_ref)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import AssembledSystem
from .bounds import BoundReport, csv_cell, lambda_max_with_vector
from .reference import ReferenceElement

__all__ = [
    "RKScheme",
    "IntegrationTrace",
    "BlowUpError",
    "CertificateError",
    "rk_scheme",
    "scheme_from_tableau",
    "stable_timestep",
    "integrate",
    "top_mode_initial_condition",
    "l2_growth_certificate",
]

BLOW_UP_THRESHOLD = 1e100

# Each bound source, and the BoundReport field that holds its estimate of lambda_max.
BOUND_SOURCES = {
    "exact": "lambda_max_exact",
    "diag_ratio": "upper_diag_ratio",
    "geometric": "upper_geometric",
}


class BlowUpError(RuntimeError):
    """Raised when an integration norm exceeds the overflow threshold.

    Carries the offending step index and the trace of all steps completed
    before the blow-up.
    """

    def __init__(self, message: str, step: int, trace: "IntegrationTrace"):
        super().__init__(message)
        self.step = step
        self.trace = trace

    def __reduce__(self):
        # Pickle rebuilds from every field, so the error crosses a process pool.
        return type(self), (self.args[0], self.step, self.trace)


class CertificateError(RuntimeError):
    """Raised when observed L2 growth exceeds its certified bound."""

    def __init__(self, message: str, step: int, ratio: float, bound: float):
        super().__init__(message)
        self.step = step
        self.ratio = ratio
        self.bound = bound

    def __reduce__(self):
        return type(self), (self.args[0], self.step, self.ratio, self.bound)


@dataclass(frozen=True)
class RKScheme:
    """An explicit Runge-Kutta scheme reduced to its stability polynomial.

    stability_poly holds the coefficients of R(z) in ascending order, so
    stability_poly[0] is always 1.  real_stability_boundary is the largest s
    with |R(-x)| <= 1 for all x in [0, s].
    """

    name: str
    stability_poly: tuple[float, ...]
    real_stability_boundary: float

    @property
    def n_stages(self) -> int:
        return len(self.stability_poly) - 1

    def amplification(self, z: float | np.ndarray) -> float | np.ndarray:
        """Evaluate R(z)."""
        return np.polyval(self.stability_poly[::-1], z)


NAMED_SCHEME_POLYS: dict[str, tuple[float, ...]] = {
    "explicit_euler": (1.0, 1.0),
    "heun2": (1.0, 1.0, 0.5),
    "kutta3": (1.0, 1.0, 0.5, 1.0 / 6.0),
    "classic_rk4": (1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0),
}


def _boundary_from_poly(coeffs: tuple[float, ...]) -> float:
    """Largest s such that |R(-x)| <= 1 on [0, s], bisected to absolute 1e-12.

    A coarse scan brackets the first point where the amplification exceeds
    one; the scan range doubles until such a point exists (guaranteed for
    polynomials of degree >= 1).  The bracket's lower end is returned: the
    point where |R(-x)| <= 1 was evaluated, so a step of s is stable.
    """
    desc = np.asarray(coeffs[::-1], dtype=float)

    def excess(x: float | np.ndarray) -> float | np.ndarray:
        return np.abs(np.polyval(desc, -x)) - 1.0

    hi = 4.0
    while not excess(hi) > 0:
        hi *= 2.0
        if hi > 2**60:
            raise ValueError("no stability boundary found; polynomial never exceeds 1")
    grid = np.linspace(0.0, hi, 100001)
    for start in range(0, grid.size, 4096):  # chunks keep the temporaries small
        above = np.nonzero(excess(grid[start:start + 4096]) > 0)[0]
        if above.size:
            first = start + int(above[0])
            break
    lo, up = float(grid[first - 1]), float(grid[first])
    while up - lo > 1e-12:
        mid = 0.5 * (lo + up)
        if excess(mid) > 0:
            up = mid
        else:
            lo = mid
    return lo


@functools.cache
def rk_scheme(name: str) -> RKScheme:
    """Build one of the named explicit schemes, once per name.

    Supported names: explicit_euler, heun2, kutta3, classic_rk4.
    """
    if name not in NAMED_SCHEME_POLYS:
        known = ", ".join(sorted(NAMED_SCHEME_POLYS))
        raise ValueError(f"unknown scheme {name!r}; expected one of {known}")
    coeffs = NAMED_SCHEME_POLYS[name]
    return RKScheme(name, coeffs, _boundary_from_poly(coeffs))


def scheme_from_tableau(
    a: np.ndarray, b: np.ndarray, name: str = "generic"
) -> RKScheme:
    """Build a scheme from an explicit Butcher tableau (A strictly lower).

    The stability polynomial of an s-stage explicit method is
    R(z) = 1 + sum_{k=1..s} (b^T A^{k-1} 1) z^k.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = b.size
    if a.shape != (s, s):
        raise ValueError(f"tableau shape mismatch: A is {a.shape}, b has {s} weights")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("tableau has a non-finite entry")
    if np.any(np.abs(np.triu(a)) > 0):
        raise ValueError("tableau is not explicit: A has entries on or above the diagonal")
    coeffs = [1.0]
    power = np.ones(s)
    for _ in range(s):
        coeffs.append(float(b @ power))
        power = a @ power
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    poly = tuple(coeffs)
    return RKScheme(name, poly, _boundary_from_poly(poly))


def stable_timestep(scheme: RKScheme, bound_source: str, report: BoundReport) -> float:
    """Largest provably stable step: boundary / eigenvalue estimate.

    bound_source selects which estimate of lambda_max backs the guarantee:
    "exact" (computed eigenvalue), "diag_ratio" (diagonal-ratio upper
    bound), or "geometric" (patch-geometry upper bound).
    """
    if bound_source not in BOUND_SOURCES:
        known = ", ".join(BOUND_SOURCES)
        raise ValueError(f"unknown bound source {bound_source!r}; expected one of {known}")
    lam = getattr(report, BOUND_SOURCES[bound_source])
    if lam is None:
        raise ValueError(
            f"bound source {bound_source!r} is unavailable in this report "
            "(eigenvalue computation was skipped)"
        )
    if lam <= 0:
        raise ValueError(f"nonpositive eigenvalue estimate {lam} from {bound_source!r}")
    return scheme.real_stability_boundary / lam


@dataclass(frozen=True)
class IntegrationTrace:
    """Per-step norm history of an integration run.

    Row n holds the state after n steps, so times[0] = 0 describes the
    initial condition and all arrays have n_steps + 1 entries.  A run with
    zero steps still records its initial state; an empty trace (no rows at
    all) only arises as the partial trace of an immediate blow-up.
    """

    times: np.ndarray
    l2_norms: np.ndarray
    energy_norms: np.ndarray
    tau: float
    scheme: str
    final_state: np.ndarray

    @property
    def n_steps(self) -> int:
        return max(len(self.times) - 1, 0)

    def write_csv(self, path) -> None:
        """One row per step, each cell formatted by csv_cell."""
        rows = zip(range(len(self.times)), self.times.tolist(), self.l2_norms.tolist(),
                   self.energy_norms.tolist())
        with open(path, "w") as handle:
            handle.write("step,t,l2_norm,energy_norm\n")
            for row in rows:
                handle.write(",".join(map(csv_cell, row)) + "\n")


def _product_storage(matrix):
    """matrix as a dia_array when its diagonals fill it, else matrix itself.

    The diagonals are counted in O(nnz) before any conversion: a 128x128 P2
    stiffness has 65,927 of them, and its DIA copy would take about 34 GB.
    """
    if matrix.format != "csr" or not matrix.has_canonical_format:
        return matrix
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    n_diagonals = np.count_nonzero(np.bincount(matrix.indices - rows + n))
    if n_diagonals * n > 1.25 * matrix.nnz:
        return matrix
    return matrix.todia()


def _stage_maps(
    system: AssembledSystem, tau: float
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The maps w -> tau M-tilde^-1 w and v -> tau M-tilde^-1 A v of one run.

    The first may overwrite its argument.  A diagonal surrogate folds tau/m
    into a copy of the stiffness, so a stage is a single sparse product, in
    the storage _product_storage picks for that pattern: DIA for P1, CSR
    otherwise, with the same bytes either way.  Any other surrogate uses the
    system's surrogate_solve, and a stage is a product with A and a solve.
    """
    stiffness = system.stiffness
    if system.surrogate_is_diagonal:
        # the constant vector tau through M-tilde^-1 is the diagonal of tau M-tilde^-1
        scale = system.surrogate_solve(np.full(system.n_dofs, tau))
        stage = stiffness.tocsr(copy=True)
        stage.data *= np.repeat(scale, np.diff(stage.indptr))
        stage = _product_storage(stage)
        return (lambda w: np.multiply(scale, w, out=w)), (lambda v: stage @ v)

    def scaled_solve(w: np.ndarray) -> np.ndarray:
        x = system.surrogate_solve(w)
        x *= tau
        return x

    return scaled_solve, (lambda v: scaled_solve(stiffness @ v))


def integrate(
    system: AssembledSystem,
    scheme: RKScheme,
    tau: float,
    n_steps: int,
    u0: np.ndarray,
) -> IntegrationTrace:
    """Run n_steps of the scheme on M-tilde U' = -A U from u0.

    Each step multiplies by the stability polynomial of the scheme
    evaluated at -tau * M-tilde^-1 A in Horner form, which equals the
    stage-by-stage Runge-Kutta update up to roundoff.  The trace records
    sqrt(U^T M U) and sqrt(U^T A U) with the consistent mass M after every
    step; the product A U taken for the energy norm is also the first stage
    of the next step.  An s-stage step therefore costs s products with the
    stiffness pattern and one with the mass.

    Raises BlowUpError (with step index and partial trace) as soon as a
    norm is non-finite or exceeds 1e100.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"step size must be positive and finite, got {tau}")
    if n_steps < 0:
        raise ValueError(f"step count must be nonnegative, got {n_steps}")
    u = np.array(u0, dtype=float)
    n = system.n_dofs
    if u.shape != (n,):
        raise ValueError(f"initial vector has shape {u.shape}, expected ({n},)")
    if not np.isfinite(u).all():
        raise ValueError("initial vector has a non-finite entry")

    mass = _product_storage(system.mass)
    stiffness = _product_storage(system.stiffness)
    scale, apply = _stage_maps(system, tau)
    coeffs = scheme.stability_poly
    v = np.empty_like(u)

    times = np.empty(n_steps + 1)
    l2_norms = np.empty(n_steps + 1)
    energy_norms = np.empty(n_steps + 1)

    def record(step: int) -> np.ndarray:
        """Store the norms of u; return A u for the next step's first stage."""
        w = stiffness @ u
        # einsum sums in a fixed order; BLAS ddot's order follows its thread count
        l2_sq = float(np.einsum("i,i->", u, mass @ u))
        energy_sq = float(np.einsum("i,i->", u, w))
        l2 = math.sqrt(max(l2_sq, 0.0)) if math.isfinite(l2_sq) else math.inf
        energy = math.sqrt(max(energy_sq, 0.0)) if math.isfinite(energy_sq) else math.inf
        if max(l2, energy) > BLOW_UP_THRESHOLD:
            partial = IntegrationTrace(
                times[:step].copy(),
                l2_norms[:step].copy(),
                energy_norms[:step].copy(),
                tau,
                scheme.name,
                u.copy(),
            )
            label = "L2" if l2 > BLOW_UP_THRESHOLD else "energy"
            raise BlowUpError(
                f"blow-up detected at step {step}: {label} norm reached "
                f"{max(l2, energy):.3e}",
                step=step,
                trace=partial,
            )
        times[step] = step * tau
        l2_norms[step] = l2
        energy_norms[step] = energy
        return w

    w = record(0)
    for step in range(1, n_steps + 1):
        # Horner: v <- c_k u - K v from v = c_s u, with K = tau M-tilde^-1 A;
        # the first product K (c_s u) comes from w = A u.
        k = scale(w)
        k *= coeffs[-1]
        for c in coeffs[-2:0:-1]:
            np.multiply(u, c, out=v)
            v -= k
            k = apply(v)
        np.multiply(u, coeffs[0], out=v)
        v -= k
        u, v = v, u
        w = record(step)
    return IntegrationTrace(times, l2_norms, energy_norms, tau, scheme.name, u)


def top_mode_initial_condition(system: AssembledSystem, seed: int = 0) -> np.ndarray:
    """Dominant eigenvector of the pencil plus seeded Gaussian noise.

    The noise, drawn from default_rng(seed), guarantees a nonzero component
    on the top mode even after floating-point roundoff in downstream
    arithmetic; its norm is 1e-3 times the eigenvector's, so the returned
    vector still points almost exactly along the most unstable direction.
    seed sets the noise only: the eigenvector is lambda_max_with_vector's,
    from the one eigensolve the system keeps, whose value the report read
    too.  A pencil that meets the band rule (every 1D system) takes it from
    three inverse-iteration solves; any other pencil replays that forward
    Lanczos run rather than running it again.
    """
    _, vec = lambda_max_with_vector(system)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(vec.size)
    noise *= 1e-3 * np.linalg.norm(vec) / np.linalg.norm(noise)
    return vec + noise


def l2_growth_certificate(
    trace: IntegrationTrace, system: AssembledSystem, elem: ReferenceElement
) -> float:
    """Check observed L2 growth against system.l2_growth_bound.

    Returns the observed max_n ||u_n|| / ||u_0||.  Raises CertificateError
    (naming the offending step) if the observed growth exceeds the bound
    by more than 1e-9.  A run started from the zero vector certifies
    trivially with ratio 0.  elem must be the system's own element object,
    or ValueError.
    """
    if elem is not system.elem:
        raise ValueError("the system was not assembled with this element")
    bound = system.l2_growth_bound
    if len(trace.l2_norms) == 0:
        return 0.0
    initial = float(trace.l2_norms[0])
    if initial == 0.0:
        if np.any(trace.l2_norms > 0):
            step = int(np.argmax(trace.l2_norms > 0))
            raise CertificateError(
                f"growth from zero initial state at step {step}",
                step=step,
                ratio=math.inf,
                bound=bound,
            )
        return 0.0
    ratios = trace.l2_norms / initial
    worst = int(np.argmax(ratios))
    observed = float(ratios[worst])
    if observed > bound + 1e-9:
        raise CertificateError(
            f"L2 growth {observed:.17g} exceeds certified bound {bound:.17g} "
            f"at step {worst}",
            step=worst,
            ratio=observed,
            bound=bound,
        )
    return observed
