"""Reference Lagrange elements: nodes, mass matrices, and basis constants.

Builds the unit-measure reference elements used everywhere else and prints
the quantities that drive the eigenvalue bounds: the reference mass matrix
spectrum, its condition number, and the gradient seminorm constant.
"""

import math

import numpy as np

from rkstab import build_reference_element, simplex_quadrature, tabulate_basis

for dim, order in [(1, 1), (1, 2), (2, 1), (2, 2)]:
    elem = build_reference_element(dim, order)
    print(f"--- dimension {dim}, order {order} ---")
    print(f"nodes per element: {elem.node_count}")
    print(f"reference mass eigenvalues: [{elem.lambda_hat_min:.6f}, {elem.lambda_hat_max:.6f}]")
    print(f"condition number kappa(M-hat): {elem.condition_number:.6f}")
    print(f"gradient constant C_H1: {elem.c_h1:.6f}")
    print()

# The basis is nodal: each function is 1 at its own node, 0 at the others.
elem = build_reference_element(2, 2)
values = tabulate_basis(elem, elem.nodes)
print("P2 triangle nodal property, max |basis(nodes) - I|:",
      f"{np.max(np.abs(values - np.eye(elem.node_count))):.2e}")

# Quadrature on the unit-measure simplex: weights sum to one and the rules
# integrate x^2 y^3 exactly (compare against the factorial formula).
pts, wts = simplex_quadrature(2, degree=6)
exact = 2.0 * math.factorial(2) * math.factorial(3) / math.factorial(2 + 3 + 2)
approx = float(wts @ (pts[:, 0] ** 2 * pts[:, 1] ** 3))
print(f"quadrature weight sum: {wts.sum():.15f}")
print(f"integral of x^2 y^3: {approx:.12e} (closed form {exact:.12e})")
