"""Spatial Galerkin assembly with cubic Hermite beam elements.

Each node carries a deflection DOF and a rotation DOF.  Simply supported
essential conditions eliminate the deflection DOFs at both end nodes; the
end rotation DOFs are retained because they carry the slope outputs
u_x(0, t) and u_x(l, t).  Zero-moment conditions at the ends are natural
and hold weakly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError

# 3-point Gauss rule on [0, 1]
_GPTS = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GWTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def hermite_shapes(xi, h):
    """Cubic Hermite shape functions and derivatives at xi in [0, 1].

    Returns (N, dN, ddN) for local DOFs (w1, th1, w2, th2); derivatives
    are with respect to the physical coordinate on an element of size h.
    An h out of floating range gives infinite or NaN entries, not an
    OverflowError.
    """
    xi = np.asarray(xi, dtype=float)
    h = np.float64(h)
    N = np.stack([
        1 - 3 * xi ** 2 + 2 * xi ** 3,
        h * (xi - 2 * xi ** 2 + xi ** 3),
        3 * xi ** 2 - 2 * xi ** 3,
        h * (-xi ** 2 + xi ** 3),
    ])
    dN = np.stack([
        (-6 * xi + 6 * xi ** 2) / h,
        1 - 4 * xi + 3 * xi ** 2,
        (6 * xi - 6 * xi ** 2) / h,
        -2 * xi + 3 * xi ** 2,
    ])
    ddN = np.stack([
        (-6 + 12 * xi) / h ** 2,
        (-4 + 6 * xi) / h,
        (6 - 12 * xi) / h ** 2,
        (-2 + 6 * xi) / h,
    ])
    return N, dN, ddN


def _element_dofs(n_nodes):
    """(n_elements, 4) reduced DOFs of each element's (w1, th1, w2, th2):
    the (deflection, rotation) per node numbering without the two end
    deflections, which map to -1."""
    reduced = np.arange(2 * n_nodes) - 1
    reduced[0] = reduced[-2] = -1
    reduced[-1] = 2 * n_nodes - 3
    return reduced[2 * np.arange(n_nodes - 1)[:, None] + np.arange(4)]


def _banded(grid, c, order):
    """Upper band ab[3 + i - j, j] = A[i, j] of the constrained matrix of
    int c D^order(N_i) D^order(N_j) dx, with c linearly interpolated
    between its nodal samples.  Raises DivergenceError when an element
    size out of floating range makes an entry non-finite."""
    a, b = np.triu_indices(4)
    dofs = _element_dofs(grid.n_nodes)
    i, j = dofs[:, a], dofs[:, b]
    keep = (i >= 0) & (j >= 0)
    ab = np.zeros((4, 2 * grid.n_nodes - 2))
    with np.errstate(all="ignore"):
        B = hermite_shapes(_GPTS, grid.h)[order]
        c_gauss = np.outer(c[:-1], 1 - _GPTS) + np.outer(c[1:], _GPTS)
        element = grid.h * np.einsum("eg,ig,jg->eij", _GWTS * c_gauss, B, B)
        np.add.at(ab, ((3 + i - j)[keep], j[keep]), element[:, a, b][keep])
    if not np.isfinite(ab).all():
        raise DivergenceError(f"non-finite band at element size {grid.h:g}")
    return ab


@dataclass(frozen=True)
class SystemMatrices:
    """Galerkin matrices on the constrained DOF set.

    M: mass, C_ext: external damping, K_T: tension, K_r: bending,
    K_kappa: Kelvin-Voigt damping.  Each is symmetric with bandwidth 3
    and is stored as its upper band in LAPACK layout, shape
    (4, n_dofs) with ab[3 + i - j, j] = A[i, j]; no dense matrix is
    formed.  The reduced DOFs are the full (deflection, rotation) per
    node numbering without the two end deflections; the end rotations
    sit at `theta0_dof` and `thetaL_dof`.  `load_map` takes nodal load
    samples to the consistent constrained load vector.
    """

    M: np.ndarray
    C_ext: np.ndarray
    K_T: np.ndarray
    K_r: np.ndarray
    K_kappa: np.ndarray
    theta0_dof: int
    thetaL_dof: int
    deflection_dofs: np.ndarray   # reduced indices of interior deflections
    load_map: np.ndarray

    @property
    def n_dofs(self):
        return self.M.shape[1]

    @property
    def C(self):
        """Damping band of the pencil M a + C v + K u: viscous plus
        Kelvin-Voigt."""
        return self.C_ext + self.K_kappa

    @property
    def K(self):
        """Stiffness band of the pencil: tension plus bending."""
        return self.K_T + self.K_r


def nodal(deflections):
    """Nodal field (n_nodes, n_times) of the rows at a system's
    `deflection_dofs`; the simply supported end rows are zero."""
    w = np.zeros((len(deflections) + 2, deflections.shape[1]))
    w[1:-1] = deflections
    return w


def assemble(grid, coeffs):
    """Assemble the constrained system matrices in upper band storage.

    Raises DimensionError when the coefficients are sampled on another
    number of nodes than the grid has.
    """
    n_nodes = grid.n_nodes
    if len(coeffs.rho_A) != n_nodes:
        raise DimensionError(f"coefficients have {len(coeffs.rho_A)} "
                             f"samples, grid has {n_nodes} nodes")
    # element map from the two nodal load samples, linearly interpolated,
    # to the element load vector; the assembled map stays dense, because
    # one GEMM per solve reads it
    rows, cols = np.broadcast_arrays(
        _element_dofs(n_nodes)[:, :, None],
        np.arange(n_nodes - 1)[:, None, None] + np.arange(2))
    keep = rows >= 0
    load_map = np.zeros((2 * n_nodes - 2, n_nodes))
    # an element size out of floating range is refused by the bands'
    # check, or as non-finite forces, not by a warning here
    with np.errstate(all="ignore"):
        element = grid.h * np.einsum("g,ig,jg->ij", _GWTS,
                                     hermite_shapes(_GPTS, grid.h)[0],
                                     np.stack([1 - _GPTS, _GPTS]))
        np.add.at(load_map, (rows[keep], cols[keep]),
                  np.broadcast_to(element, rows.shape)[keep])
    return SystemMatrices(
        M=_banded(grid, coeffs.rho_A, 0),
        C_ext=_banded(grid, coeffs.mu, 0),
        K_T=_banded(grid, coeffs.T_r, 1),
        K_r=_banded(grid, coeffs.r, 2),
        K_kappa=_banded(grid, coeffs.kappa, 2),
        theta0_dof=0,
        thetaL_dof=2 * n_nodes - 3,
        deflection_dofs=2 * np.arange(1, n_nodes - 1) - 1,
        load_map=load_map,
    )


def unit_norm_matrices(grid):
    """Constrained M and K_r bands with unit coefficients: v' M v and
    u' K_r u are the ||u_t||^2 and ||u_xx||^2 that the estimate checks
    bound."""
    ones = np.ones(grid.n_nodes)
    return _banded(grid, ones, 0), _banded(grid, ones, 2)

