"""Matrix assembly and the surrogate-mass axioms.

Assembles mass, stiffness, and lumped surrogate matrices for an anisotropic
problem and shows the two structural facts the bounds rest on: the surrogate
element matrix is a fixed SPD reference matrix scaled by element volume, and
total mass is conserved by lumping.
"""

import numpy as np

from rkstab import (
    CONSISTENT,
    HRZ_DIAGONAL,
    DiffusionField,
    assemble_stiffness,
    assemble_system,
    structured_triangular,
    build_reference_element,
    surrogate_reference_matrix,
)

mesh = structured_triangular(8, 8)
elem = build_reference_element(2, 2)
diffusion = DiffusionField.rotated_anisotropic(np.pi / 6, (1.0, 100.0))

for policy in (CONSISTENT, HRZ_DIAGONAL):
    system = assemble_system(mesh, elem, diffusion, policy)
    mass_total = system.mass.sum()
    surrogate_total = system.surrogate_mass.sum()
    print(f"policy {policy.kind}:")
    print(f"  reduced DOFs: {system.n_dofs}")
    print(f"  kappa of the reference surrogate: {system.kappa_surrogate:.6f}")
    print(f"  surrogate stored as diagonal: {system.surrogate_is_diagonal}")
    print()

# Lumping preserves the element measure: the HRZ reference matrix has unit
# trace, so every element contributes exactly its volume.
ref = surrogate_reference_matrix(elem, HRZ_DIAGONAL)
print(f"HRZ reference matrix trace: {np.trace(ref):.15f}")

# Unreduced stiffness rows sum to ~0 (constants lie in the kernel).
row_sums = np.abs(assemble_stiffness(mesh, elem, diffusion)[0].sum(axis=1))
print(f"max unreduced stiffness row sum: {row_sums.max():.2e}")
