import numpy as np
import pytest
from scipy.linalg import eigh

from beamload.assembly import (_GPTS, _GWTS, assemble, hermite_shapes,
                              nodal)
from beamload.errors import DimensionError, ValidationError
from beamload.model import CoefficientBounds, CoefficientSet, SpaceTimeGrid

NAMES = ("M", "C_ext", "K_T", "K_r", "K_kappa")


def grid_of(n_elements, length=1.0):
    return SpaceTimeGrid(length=length, final_time=1.0,
                         n_elements=n_elements, n_steps=8)


def reference_assembly(grid, coeffs):
    """Dense unconstrained matrices and load map by a per-element np.ix_
    scatter, and the free DOFs of the constrained system: the reference
    the band assembly must reproduce."""
    ndof = 2 * grid.n_nodes
    h = grid.h
    N, dN, ddN = hermite_shapes(_GPTS, h)
    mats = {name: np.zeros((ndof, ndof)) for name in NAMES}
    load_map = np.zeros((ndof, grid.n_nodes))
    spec = (("M", coeffs.rho_A, N), ("C_ext", coeffs.mu, N),
            ("K_T", coeffs.T_r, dN), ("K_r", coeffs.r, ddN),
            ("K_kappa", coeffs.kappa, ddN))
    for e in range(grid.n_elements):
        dofs = np.arange(2 * e, 2 * e + 4)
        for name, c, B in spec:
            ce = c[e] * (1 - _GPTS) + c[e + 1] * _GPTS
            mats[name][np.ix_(dofs, dofs)] += h * np.einsum(
                "g,ig,jg->ij", _GWTS * ce, B, B)
        load_map[np.ix_(dofs, [e, e + 1])] += h * np.einsum(
            "g,ig,jg->ij", _GWTS, N, np.stack([1 - _GPTS, _GPTS]))
    free = np.array([d for d in range(ndof) if d not in (0, ndof - 2)])
    return mats, load_map, free


def upper_band(A, k=3):
    ab = np.zeros((k + 1, A.shape[0]))
    for d in range(k + 1):
        ab[k - d, d:] = np.diagonal(A, d)
    return ab


def variable_coefficients(grid):
    x = grid.nodes / grid.length
    fields = {name: base * (1.0 + 0.3 * np.sin(np.pi * x) + 0.2 * x)
              for name, base in (("rho_A", 1.0), ("mu", 0.05), ("T_r", 0.1),
                                 ("r", 0.8), ("kappa", 0.02))}
    bounds = CoefficientBounds(
        *(f(fields[name]) for name in ("rho_A", "mu", "T_r", "r", "kappa")
          for f in (np.min, np.max)))
    return CoefficientSet(bounds=bounds, **fields)


# classic closed-form element matrices of the cubic Hermite beam element
def bending_element(r, h):
    return (r / h ** 3) * np.array([
        [12, 6 * h, -12, 6 * h],
        [6 * h, 4 * h ** 2, -6 * h, 2 * h ** 2],
        [-12, -6 * h, 12, -6 * h],
        [6 * h, 2 * h ** 2, -6 * h, 4 * h ** 2]], dtype=float)


def tension_element(T, h):
    return (T / (30 * h)) * np.array([
        [36, 3 * h, -36, 3 * h],
        [3 * h, 4 * h ** 2, -3 * h, -h ** 2],
        [-36, -3 * h, 36, -3 * h],
        [3 * h, -h ** 2, -3 * h, 4 * h ** 2]], dtype=float)


def mass_element(rho, h):
    return (rho * h / 420) * np.array([
        [156, 22 * h, 54, -13 * h],
        [22 * h, 4 * h ** 2, 13 * h, -3 * h ** 2],
        [54, 13 * h, 156, -22 * h],
        [-13 * h, -3 * h ** 2, -22 * h, 4 * h ** 2]], dtype=float)


def test_hermite_shapes_interpolation_conditions():
    for h in (0.25, 1.0):
        N0, dN0, _ = hermite_shapes(np.array([0.0]), h)
        N1, dN1, _ = hermite_shapes(np.array([1.0]), h)
        assert np.allclose(N0[:, 0], [1, 0, 0, 0])
        assert np.allclose(N1[:, 0], [0, 0, 1, 0])
        assert np.allclose(dN0[:, 0], [0, 1, 0, 0])
        assert np.allclose(dN1[:, 0], [0, 0, 0, 1])


def test_single_element_matrices_match_closed_forms(dense):
    g = grid_of(4, length=2.0)
    h = g.h
    rho, Tr, r = 1.3, 0.7, 2.1
    coeffs = CoefficientSet.constant(g, rho_A=rho, mu=0.0, T_r=Tr, r=r,
                                     kappa=0.01)
    s = assemble(g, coeffs)
    K_r, K_T, M = dense(s.K_r), dense(s.K_T), dense(s.M)
    # the rotation at node 0 (reduced DOF 0) couples within the first
    # element only, so its row exposes the raw element matrix row of
    # local DOF th1 against (th1, w2, th2)
    # bending and tension integrands are within the 3-point Gauss degree
    assert np.allclose(K_r[0, :3], bending_element(r, h)[1, 1:], rtol=1e-13)
    # the first interior deflection is shared by two equal elements
    assert K_r[1, 1] == pytest.approx(24 * r / h ** 3, rel=1e-13)
    assert np.allclose(K_T[0, :3], tension_element(Tr, h)[1, 1:],
                       rtol=1e-13)
    # the mass integrand is degree 6, one above the rule's exactness
    assert np.allclose(M[0, :3], mass_element(rho, h)[1, 1:],
                       rtol=2e-3, atol=2e-3 * rho * h)


@pytest.mark.parametrize("n_elements", [4, 5, 16, 64])
def test_band_assembly_matches_dense_reference(n_elements):
    g = grid_of(n_elements)
    coeffs = variable_coefficients(g)
    s = assemble(g, coeffs)
    mats, load_map, free = reference_assembly(g, coeffs)
    for name in NAMES:
        A = mats[name]
        # element-local coupling only: symmetric, full-numbering bandwidth 3
        assert np.allclose(A, A.T, atol=1e-14)
        assert not np.triu(A, 4).any()
        ab = getattr(s, name)
        assert ab.shape == (4, s.n_dofs)
        assert np.array_equal(ab, upper_band(A[np.ix_(free, free)]))
    assert np.array_equal(s.load_map, load_map[free])


def test_mass_partition_recovers_total_mass(dense):
    g = grid_of(16, length=2.0)
    rho = 1.7
    coeffs = CoefficientSet.constant(g, rho_A=rho)
    mats, load_map, free = reference_assembly(g, coeffs)
    s = assemble(g, coeffs)
    # rigid translation: unit deflection, zero rotation at every node
    ones = np.zeros(2 * g.n_nodes)
    ones[0::2] = 1.0
    assert ones @ mats["M"] @ ones == pytest.approx(rho * g.length,
                                                    rel=1e-12)
    # consistent resultant of a uniform unit load is the beam length
    F = np.ones(g.n_nodes)
    assert ones @ (load_map @ F) == pytest.approx(g.length, rel=1e-12)
    # on the constrained system: the mode u = x (l - x), which the
    # Hermite elements and the Gauss rule carry exactly, has mass
    # rho l^5 / 30 and takes work l^3 / 6 from a uniform unit load
    x, l = g.nodes, g.length
    mode = np.zeros(2 * g.n_nodes)
    mode[0::2], mode[1::2] = x * (l - x), l - 2 * x
    mode = mode[free]
    assert mode @ dense(s.M) @ mode == pytest.approx(rho * l ** 5 / 30,
                                                     rel=1e-12)
    assert mode @ (s.load_map @ F) == pytest.approx(l ** 3 / 6, rel=1e-12)


def test_simply_supported_eigenvalues(dense):
    g = grid_of(64)
    coeffs = CoefficientSet.constant(g, rho_A=1.0, r=1.0, T_r=0.0)
    sys_ = assemble(g, coeffs)
    lam = eigh(dense(sys_.K_r), dense(sys_.M), eigvals_only=True)
    exact = np.array([(k * np.pi) ** 4 for k in range(1, 6)])
    assert np.allclose(np.sort(lam)[:5], exact, rtol=1e-3)


def test_symmetry_definiteness_and_bandwidth(dense):
    g = grid_of(16)
    coeffs = CoefficientSet.constant(g, rho_A=1.0, mu=0.3, T_r=0.4,
                                     r=1.2, kappa=0.02)
    sys_ = assemble(g, coeffs)
    for name in NAMES:
        # the upper band layout holds a symmetric matrix of bandwidth
        # three; its unused corner stays zero
        ab = getattr(sys_, name)
        assert ab.shape == (4, sys_.n_dofs)
        assert not ab[0, :3].any() and not ab[1, :2].any() and ab[2, 0] == 0
    assert np.all(np.linalg.eigvalsh(dense(sys_.M)) > 0)
    assert np.all(np.linalg.eigvalsh(dense(sys_.K_r)) > 0)


def test_assembly_is_linear_in_each_coefficient(dense):
    g = grid_of(8)
    c1 = CoefficientSet.constant(g, r=1.0)
    c2 = CoefficientSet.constant(g, r=2.0)
    s1, s2 = assemble(g, c1), assemble(g, c2)
    assert np.allclose(2.0 * dense(s1.K_r), dense(s2.K_r), rtol=1e-14)
    assert np.allclose(dense(s1.M), dense(s2.M), rtol=1e-14)


def test_assemble_rejects_inadmissible_coefficients():
    # an inadmissible set cannot be made, so it never reaches assemble
    g = grid_of(8)
    bounds = CoefficientBounds(1, 1, 0, 0, 0, 0, 2.0, 3.0, 0.01, 0.01)
    with pytest.raises(ValidationError, match=r"\nr\[0\] = 1 violates "
                       r"lower bound 2 \(9 nodes\)$"):
        assemble(g, CoefficientSet.constant(g, r=1.0, bounds=bounds))


def test_assemble_rejects_coefficients_of_another_grid():
    coeffs = CoefficientSet.constant(grid_of(8))
    with pytest.raises(DimensionError, match="coefficients have 9 samples, "
                       "grid has 17 nodes"):
        assemble(grid_of(16), coeffs)


def test_output_dof_indexing():
    g = grid_of(8)
    sys_ = assemble(g, CoefficientSet.constant(g))
    # end deflections eliminated: rotation at node 0 is the first reduced
    # DOF, rotation at the last node is the final one
    assert sys_.theta0_dof == 0
    assert sys_.thetaL_dof == sys_.n_dofs - 1
    assert sys_.n_dofs == 2 * g.n_nodes - 2
    assert len(sys_.deflection_dofs) == g.n_nodes - 2


def test_nodal_field_and_pencil_layout():
    g = grid_of(8)
    sys_ = assemble(g, CoefficientSet.constant(g, mu=0.05, T_r=0.1))
    # deflection DOFs are those of the interior nodes, in node order
    u = np.random.default_rng(0).normal(size=(sys_.n_dofs, 3))
    w = nodal(u[sys_.deflection_dofs])
    assert w.shape == (g.n_nodes, 3)
    assert np.all(w[[0, -1]] == 0.0)
    assert np.array_equal(w[1:-1], u[1:-1:2])
    assert np.array_equal(sys_.C, sys_.C_ext + sys_.K_kappa)
    assert np.array_equal(sys_.K, sys_.K_T + sys_.K_r)
