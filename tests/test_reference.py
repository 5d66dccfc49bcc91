import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from rkstab.reference import (
    UnsupportedElementError,
    build_reference_element,
    simplex_multi_indices,
    simplex_quadrature,
    tabulate_basis,
    tabulate_gradients,
)

ALL_ELEMENTS = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3)]

# Exact reference constants, computed once by symbolic integration of the
# equispaced Lagrange bases and frozen here.
EXACT_MASS = {
    (1, 1): np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]),
    (1, 2): np.array(
        [
            [2 / 15, 1 / 15, -1 / 30],
            [1 / 15, 8 / 15, 1 / 15],
            [-1 / 30, 1 / 15, 2 / 15],
        ]
    ),
    (2, 1): np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12,
}
EXACT_EIG_EXTREMES = {
    (1, 1): (1 / 6, 1 / 2),
    (1, 2): ((19 - math.sqrt(201)) / 60, (19 + math.sqrt(201)) / 60),
    (1, 3): (419 / 1680 - math.sqrt(4573) / 336, 419 / 1680 + math.sqrt(4573) / 336),
    (2, 1): (1 / 12, 1 / 3),
    (2, 2): ((17 - math.sqrt(229)) / 90, (17 + math.sqrt(229)) / 90),
}
EXACT_C_H1_DIAG = {
    (1, 1): [1, 1],
    (1, 2): [7 / 3, 16 / 3, 7 / 3],
    (1, 3): [37 / 10, 54 / 5, 54 / 5, 37 / 10],
    (2, 1): [2, 1, 1],
}
EXACT_C_H1 = {(2, 2): 16 / 3, (2, 3): 81 / 5}
EXACT_MASS_TRACE = {(2, 2): 19 / 30}


@pytest.fixture(scope="module")
def elements():
    return {dm: build_reference_element(*dm) for dm in ALL_ELEMENTS}


@pytest.mark.parametrize("d,m", ALL_ELEMENTS)
def test_node_count_is_binomial(elements, d, m):
    assert elements[d, m].node_count == math.comb(m + d, d)


@pytest.mark.parametrize("d,m", ALL_ELEMENTS)
def test_quadrature_weights_positive_and_unit_sum(elements, d, m):
    w = elements[d, m].quad_weights
    assert np.all(w > 0)
    assert abs(w.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("d,m", ALL_ELEMENTS)
def test_partition_of_unity_at_quadrature_points(elements, d, m):
    elem = elements[d, m]
    values = tabulate_basis(elem, elem.quad_points)
    np.testing.assert_allclose(values.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    grad_sums = elem.quad_grads.sum(axis=1)
    assert np.max(np.abs(grad_sums)) < 1e-13


@pytest.mark.parametrize("d,m", ALL_ELEMENTS)
def test_lagrange_property_at_nodes(elements, d, m):
    elem = elements[d, m]
    values = tabulate_basis(elem, elem.nodes)
    np.testing.assert_allclose(values, np.eye(elem.node_count), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d,m", ALL_ELEMENTS)
def test_mass_matrix_spd_and_trace(elements, d, m):
    elem = elements[d, m]
    mass = elem.ref_mass_matrix
    np.testing.assert_allclose(mass, mass.T, rtol=0, atol=1e-15)
    assert elem.lambda_hat_min > 0
    # the trace is the sum of the squared L2 norms, here from a finer rule
    pts, wts = simplex_quadrature(d, 2 * m + 2)
    assert abs(np.trace(mass) - np.einsum("q,qi->", wts, tabulate_basis(elem, pts) ** 2)) < 1e-14


@pytest.mark.parametrize("d,m", ALL_ELEMENTS)
def test_quadrature_sufficiency(elements, d, m):
    """Mass from the built-in rule matches a one-higher-order rule."""
    elem = elements[d, m]
    pts, wts = simplex_quadrature(d, 2 * m + 2)
    vals = tabulate_basis(elem, pts)
    finer = np.einsum("q,qi,qj->ij", wts, vals, vals)
    assert np.max(np.abs(finer - elem.ref_mass_matrix)) < 1e-13


@pytest.mark.parametrize("d,m", ALL_ELEMENTS)
def test_c_h1_is_max_of_diag(elements, d, m):
    elem = elements[d, m]
    assert elem.c_h1 == np.max(elem.c_h1_diag)
    assert elem.condition_number >= 1.0


@pytest.mark.parametrize("d,m", sorted(EXACT_MASS))
def test_mass_matrix_exact_values(elements, d, m):
    np.testing.assert_allclose(
        elements[d, m].ref_mass_matrix, EXACT_MASS[d, m], rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("d,m", sorted(EXACT_EIG_EXTREMES))
def test_eigenvalue_extremes_exact(elements, d, m):
    lo, hi = EXACT_EIG_EXTREMES[d, m]
    assert abs(elements[d, m].lambda_hat_min - lo) < 1e-14
    assert abs(elements[d, m].lambda_hat_max - hi) < 1e-14


@pytest.mark.parametrize("d,m", sorted(EXACT_C_H1_DIAG))
def test_h1_seminorm_constants_exact(elements, d, m):
    np.testing.assert_allclose(
        elements[d, m].c_h1_diag, EXACT_C_H1_DIAG[d, m], rtol=1e-14, atol=1e-14
    )


def test_higher_order_constants(elements):
    for (d, m), expected in EXACT_C_H1.items():
        assert abs(elements[d, m].c_h1 - expected) < 1e-12
    for (d, m), expected in EXACT_MASS_TRACE.items():
        assert abs(np.trace(elements[d, m].ref_mass_matrix) - expected) < 1e-14


def test_condition_numbers(elements):
    assert abs(elements[1, 1].condition_number - 3.0) < 1e-13
    assert abs(elements[2, 1].condition_number - 4.0) < 1e-13


@pytest.mark.parametrize("d,m", [(1, 1), (2, 1)])
def test_eigenvalues_match_characteristic_polynomial(elements, d, m):
    """Cross-check eigh against direct characteristic-polynomial roots."""
    mass = elements[d, m].ref_mass_matrix
    n = mass.shape[0]
    if n == 2:
        coeffs = [1.0, -np.trace(mass), np.linalg.det(mass)]
    else:
        tr = np.trace(mass)
        tr2 = np.trace(mass @ mass)
        coeffs = [1.0, -tr, 0.5 * (tr * tr - tr2), -np.linalg.det(mass)]
    roots = np.sort(np.roots(coeffs).real)
    assert abs(roots[0] - elements[d, m].lambda_hat_min) < 1e-10
    assert abs(roots[-1] - elements[d, m].lambda_hat_max) < 1e-10


def test_multi_index_ordering():
    mi = simplex_multi_indices(2, 2)
    expected = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert [tuple(row) for row in mi] == expected


def test_eval_basis_vertex_and_centroid(elements):
    elem = elements[2, 1]
    np.testing.assert_allclose(tabulate_basis(elem, [[0.0, 0.0]]), [[1, 0, 0]], atol=1e-15)
    np.testing.assert_allclose(
        tabulate_basis(elem, [[1 / 3, 1 / 3]]), [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15
    )


def test_eval_basis_quadratic_midpoint(elements):
    np.testing.assert_allclose(
        tabulate_basis(elements[1, 2], [[0.5]]), [[0, 1, 0]], atol=1e-15
    )


def test_eval_basis_sums_to_one(elements):
    rng = np.random.default_rng(42)
    elem = elements[2, 3]
    for _ in range(20):
        a, b = rng.uniform(0, 1, 2)
        if a + b > 1:
            a, b = 1 - a, 1 - b
        assert abs(tabulate_basis(elem, [[a, b]]).sum() - 1.0) < 1e-14


def test_gradients_linear_element(elements):
    grads = tabulate_gradients(elements[1, 1], [[0.3]])
    np.testing.assert_allclose(grads, [[[-1.0], [1.0]]], atol=1e-15)
    grads2 = tabulate_gradients(elements[2, 1], [[0.2, 0.3]])
    np.testing.assert_allclose(grads2, [[[-1, -1], [1, 0], [0, 1]]], atol=1e-15)


def test_gradient_midpoint_symmetry(elements):
    grads = tabulate_gradients(elements[1, 2], [[0.5]])
    assert abs(grads[0, 1, 0]) < 1e-14


def test_gradients_match_finite_differences(elements):
    elem = elements[2, 2]
    xi = np.array([[0.21, 0.35]])
    eps = 1e-6
    grads = tabulate_gradients(elem, xi)[0]
    for axis in range(2):
        step = np.zeros(2)
        step[axis] = eps
        fd = (tabulate_basis(elem, xi + step) - tabulate_basis(elem, xi - step))[0] / (2 * eps)
        np.testing.assert_allclose(grads[:, axis], fd, rtol=0, atol=1e-8)


def test_unsupported_combinations_rejected():
    with pytest.raises(UnsupportedElementError):
        build_reference_element(3, 1)
    with pytest.raises(UnsupportedElementError):
        build_reference_element(2, 0)
    with pytest.raises(UnsupportedElementError):
        build_reference_element(0, 1)


def test_quadrature_polynomial_exactness():
    """The degree-k rule integrates monomials of total degree <= k exactly."""
    for degree in (2, 4, 6):
        pts, wts = simplex_quadrature(2, degree)
        for px in range(degree + 1):
            for py in range(degree + 1 - px):
                approx = np.sum(wts * pts[:, 0] ** px * pts[:, 1] ** py)
                # exact unit-measure moment: 2 * px! py! / (px+py+2)!
                exact = 2 * math.factorial(px) * math.factorial(py) / math.factorial(
                    px + py + 2
                )
                assert abs(approx - exact) < 1e-14


def _triangle_rule_loop(degree):
    """The collapsed Gauss-Jacobi x Gauss-Legendre rule, one point at a time."""
    x, w = simplex_quadrature(1, degree)
    x = x[:, 0]
    n = x.size
    u, wu = roots_jacobi(n, 1, 0)
    u = 0.5 * (u + 1.0)
    wu = 0.25 * wu
    pts = np.empty((n * n, 2))
    wts = np.empty(n * n)
    k = 0
    for i in range(n):
        for j in range(n):
            pts[k] = (u[i], x[j] * (1.0 - u[i]))
            wts[k] = wu[i] * w[j]
            k += 1
    return pts, 2.0 * wts


def test_triangle_quadrature_matches_loop_bytes():
    """The array construction keeps every bit of the rule, and with it A, M and
    M-tilde and their nonzero counts."""
    for degree in range(31):
        pts, wts = simplex_quadrature(2, degree)
        want_pts, want_wts = _triangle_rule_loop(degree)
        assert pts.tobytes() == want_pts.tobytes(), degree
        assert wts.tobytes() == want_wts.tobytes(), degree


def test_tabulate_gradients_shape(elements):
    elem = elements[2, 2]
    pts = elem.quad_points
    assert tabulate_gradients(elem, pts).shape == (pts.shape[0], 6, 2)
