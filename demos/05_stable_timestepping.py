"""Deriving stable explicit RK steps and watching the dichotomy.

Turns the eigenvalue bounds into time steps for four explicit schemes, runs
a stable integration, then deliberately crosses the stability boundary and
catches the blow-up.
"""

import numpy as np

from rkstab import (
    HRZ_DIAGONAL,
    BlowUpError,
    DiffusionField,
    assemble_system,
    build_reference_element,
    compute_bound_report,
    integrate,
    l2_growth_certificate,
    l2_project,
    rk_scheme,
    stable_timestep,
    structured_triangular,
    top_mode_initial_condition,
)

mesh = structured_triangular(10, 10)
elem = build_reference_element(2, 1)
diffusion = DiffusionField.constant(1.0, d=2)
system = assemble_system(mesh, elem, diffusion, HRZ_DIAGONAL)
report = compute_bound_report(mesh, elem, diffusion, HRZ_DIAGONAL, system=system)

print("scheme boundaries and stable steps (diagonal-ratio bound):")
for name in ("explicit_euler", "heun2", "kutta3", "classic_rk4"):
    scheme = rk_scheme(name)
    tau = stable_timestep(scheme, "diag_ratio", report)
    print(f"  {name:>14}: boundary {scheme.real_stability_boundary:.4f}, tau {tau:.3e}")

# A stable run: energy norm decays monotonically, and the L2 norm never
# exceeds the condition-number certificate.
euler = rk_scheme("explicit_euler")
tau = stable_timestep(euler, "diag_ratio", report)
u0 = l2_project(mesh, elem, lambda x: np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
trace = integrate(system, euler, tau, 500, u0[system.dof_map])
ratio = l2_growth_certificate(trace, system, elem)
print()
print(f"stable run: energy {trace.energy_norms[0]:.4f} -> {trace.energy_norms[-1]:.4e}")
print(f"observed L2 growth {ratio:.6f} <= certificate "
      f"{system.l2_growth_bound:.6f}")

# Now 5% past the critical step with the worst initial condition.
tau_bad = 1.05 * 2.0 / report.lambda_max_exact
try:
    integrate(system, euler, tau_bad, 5000, top_mode_initial_condition(system))
    print("unexpected: no blow-up")
except BlowUpError as err:
    print(f"unstable run blew up at step {err.step} (as predicted)")
