"""Spatial Galerkin assembly with cubic Hermite beam elements.

Each node carries a deflection DOF and a rotation DOF.  Simply supported
essential conditions eliminate the deflection DOFs at both end nodes; the
end rotation DOFs are retained because they carry the slope outputs
u_x(0, t) and u_x(l, t).  Zero-moment conditions at the ends are natural
and hold weakly.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import CoefficientSet, validate_coefficients

# 3-point Gauss rule on [0, 1]
_GPTS = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GWTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def hermite_shapes(xi, h):
    """Cubic Hermite shape functions and derivatives at xi in [0, 1].

    Returns (N, dN, ddN) for local DOFs (w1, th1, w2, th2); derivatives
    are with respect to the physical coordinate on an element of size h.
    """
    xi = np.asarray(xi, dtype=float)
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


def _element_matrix(h, c_left, c_right, order):
    """4x4 element matrix of int c(x) D^order(N_i) D^order(N_j) dx.

    The coefficient is linearly interpolated between its nodal samples.
    """
    N, dN, ddN = hermite_shapes(_GPTS, h)
    B = (N, dN, ddN)[order]
    c = c_left * (1 - _GPTS) + c_right * _GPTS
    return h * np.einsum("g,ig,jg->ij", _GWTS * c, B, B)


def _element_load_map(h):
    """4x2 map from the two nodal load samples to the element load vector.

    The load is linearly interpolated inside the element.
    """
    N, _, _ = hermite_shapes(_GPTS, h)
    L = np.stack([1 - _GPTS, _GPTS])
    return h * np.einsum("g,ig,jg->ij", _GWTS, N, L)


@dataclass(frozen=True)
class SystemMatrices:
    """Galerkin matrices on the constrained DOF set.

    M: mass, C_ext: external damping, K_T: tension, K_r: bending,
    K_kappa: Kelvin-Voigt damping.  `free_dofs` indexes into the full
    (2 * n_nodes) numbering (deflection, rotation per node); `load_map`
    takes nodal load samples to the consistent constrained load vector.
    `kernels` holds the impulse-response kernels built from the system,
    one per time grid (see `forward.impulse_kernel`).
    """

    M: np.ndarray
    C_ext: np.ndarray
    K_T: np.ndarray
    K_r: np.ndarray
    K_kappa: np.ndarray
    free_dofs: np.ndarray
    theta0_dof: int
    thetaL_dof: int
    deflection_dofs: np.ndarray   # reduced indices of interior deflections
    interior_nodes: np.ndarray    # node indices matching deflection_dofs
    load_map: np.ndarray
    kernels: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_dofs(self):
        return self.M.shape[0]


def assemble_unconstrained(grid, coeffs):
    """Full (unconstrained) matrices and load map, keyed by name."""
    n_nodes = grid.n_nodes
    ndof = 2 * n_nodes
    h = grid.h
    mats = {name: np.zeros((ndof, ndof))
            for name in ("M", "C_ext", "K_T", "K_r", "K_kappa")}
    load_map = np.zeros((ndof, n_nodes))
    spec = (("M", coeffs.rho_A, 0), ("C_ext", coeffs.mu, 0),
            ("K_T", coeffs.T_r, 1), ("K_r", coeffs.r, 2),
            ("K_kappa", coeffs.kappa, 2))
    for e in range(grid.n_elements):
        dofs = np.arange(2 * e, 2 * e + 4)
        for name, c, order in spec:
            mats[name][np.ix_(dofs, dofs)] += _element_matrix(
                h, c[e], c[e + 1], order)
        load_map[np.ix_(dofs, [e, e + 1])] += _element_load_map(h)
    return mats, load_map


def _free_dofs(n_nodes):
    fixed = (0, 2 * n_nodes - 2)           # end deflections
    return np.array([d for d in range(2 * n_nodes) if d not in fixed])


def assemble(grid, coeffs):
    """Assemble the constrained system matrices.

    Raises ValidationError when the coefficients violate their bounds.
    """
    report = validate_coefficients(coeffs)
    if not report.ok:
        raise ValidationError(str(report))
    mats, load_map = assemble_unconstrained(grid, coeffs)
    n_nodes = grid.n_nodes
    free = _free_dofs(n_nodes)
    red = {d: i for i, d in enumerate(free)}
    interior_nodes = np.arange(1, n_nodes - 1)
    return SystemMatrices(
        M=mats["M"][np.ix_(free, free)],
        C_ext=mats["C_ext"][np.ix_(free, free)],
        K_T=mats["K_T"][np.ix_(free, free)],
        K_r=mats["K_r"][np.ix_(free, free)],
        K_kappa=mats["K_kappa"][np.ix_(free, free)],
        free_dofs=free,
        theta0_dof=red[1],
        thetaL_dof=red[2 * n_nodes - 1],
        deflection_dofs=np.array([red[2 * i] for i in interior_nodes]),
        interior_nodes=interior_nodes,
        load_map=load_map[free, :],
    )


def unit_norm_matrices(grid):
    """Constrained M and K_r with unit coefficients: v' M v and u' K_r u
    are the ||u_t||^2 and ||u_xx||^2 that the estimate checks bound."""
    mats, _ = assemble_unconstrained(grid, CoefficientSet.constant(grid))
    free = _free_dofs(grid.n_nodes)
    return mats["M"][np.ix_(free, free)], mats["K_r"][np.ix_(free, free)]


def natural_bc_load(p, q, grid):
    """Boundary forcing vectors carrying moment data at the end rotations.

    Returns an array (n_times, n_reduced_dofs) that is zero except at the
    two end-rotation DOFs: p(t) at x=0 and q(t) at x=l.  The sign
    convention is the one that makes the discrete duality test pass.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if len(p) != grid.n_times or len(q) != grid.n_times:
        raise ValueError("boundary series must match the time grid")
    n_red = 2 * grid.n_nodes - 2
    out = np.zeros((grid.n_times, n_red))
    out[:, 0] = p                 # rotation DOF at node 0
    out[:, n_red - 1] = q         # rotation DOF at node n
    return out
