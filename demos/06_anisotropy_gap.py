"""Where the geometric bound wins: aligned anisotropic meshes.

On meshes whose elements are stretched to match the diffusion tensor, the
classic comparison bound (max over elements of lambda_max(D) times the
squared inverse Jacobian norm) grows like the aspect ratio squared, while
the patch-geometry bound stays put.  That gap is the whole point.
"""

import numpy as np

from rkstab import (
    CONSISTENT,
    DiffusionField,
    assemble_system,
    build_reference_element,
    geometric_bound,
    stretched,
    zhudu_bound,
)

elem = build_reference_element(2, 1)

print(f"{'aspect a':>9} {'comparison':>14} {'geometric':>12} {'gap':>10}")
for a in (1.0, 10.0, 100.0, 1000.0):
    mesh = stretched(16, 16, a)
    diffusion = DiffusionField.constant(np.diag([1.0, a**-2]))
    system = assemble_system(mesh, elem, diffusion, CONSISTENT)
    comparison = zhudu_bound(system)
    geometric = geometric_bound(system)
    print(f"{a:9g} {comparison:14.4e} {geometric:12.4e} {comparison / geometric:10.2f}")

print()
print("The elements are exactly aligned with D, so the true stiffness is the")
print("same as for the Laplacian on a uniform mesh; only the comparison bound")
print("panics.  A stable-step policy built on it would shrink tau by a factor")
print("of a^2 for no reason.")
