import collections
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.fft import rfft

from beamload import forward, inversion, verify
from beamload.assembly import assemble
from beamload.errors import DivergenceError
from beamload.forward import (ImpulseKernel, end_rotation_responses,
                              impulse_kernel, kernel_fft_length)
from beamload.model import (DEFAULT_SLACK, CoefficientBounds,
                            CoefficientSet, LoadField, SpaceTimeGrid,
                            l2_norm_spacetime, spacetime_inner,
                            trapezoid_weights)
from beamload.objective import compute_gradient, evaluate_objective


@pytest.fixture(autouse=True)
def cold_beam_kernel():
    """Each test starts with an empty beam store, no kernel and no audit
    operators, so that no test's builds depend on the tests run before
    it."""
    forward._beam_kernels.clear()


@pytest.fixture(scope="session")
def baseline_grid():
    return SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=64,
                         n_steps=512)


@pytest.fixture(scope="session")
def small_grid():
    return SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=16,
                         n_steps=96)


@pytest.fixture(scope="session")
def mfd_coeffs(baseline_grid):
    """Constant coefficients of the manufactured-solution case."""
    return CoefficientSet.constant(baseline_grid, rho_A=1.0, mu=0.1,
                                   T_r=0.2, r=1.0, kappa=0.05)


@pytest.fixture(scope="session")
def small_coeffs(small_grid):
    return CoefficientSet.constant(small_grid, rho_A=1.0, mu=0.05,
                                   T_r=0.1, r=0.8, kappa=0.02)


@pytest.fixture(scope="session")
def flipped_kernel(small_grid, small_coeffs):
    """The impulse kernel of the small case with its adjoint negated, the
    duality checks' negative control.  Negation is exact in floating
    point, so its phi is the kernel's of the negated moment data."""
    kernel = impulse_kernel(assemble(small_grid, small_coeffs), small_grid)
    return SimpleNamespace(outputs=kernel.outputs,
                           adjoint=lambda p, q: -kernel.adjoint(p, q))


def _full_kernel(system, grid, u=None):
    """The ImpulseKernel with every node's responses kept as spectra and
    identity bases: `impulse_kernel` as it was before it factored the
    responses at their numerical rank.  Products with an identity are
    exact, so it applies the unfactored responses bit for bit.  The
    reference of the factored kernel."""
    n_fft = kernel_fft_length(grid)
    n_freq = n_fft // 2 + 1
    n_nodes = system.load_map.shape[1]
    if u is None:
        u = end_rotation_responses(system, grid)[0]
    load_basis, field_basis = np.eye(n_nodes), np.eye(n_nodes - 2)
    kernel = ImpulseKernel(
        n_fft=n_fft, n_times=grid.n_times,
        outputs_t1=np.empty((2, n_nodes, n_freq), dtype=complex),
        adjoint_t1=np.empty((n_nodes - 2, 2, n_freq), dtype=complex),
        load_basis=load_basis, field_basis=field_basis,
        coupling=load_basis[1:-1].T @ field_basis,
        field_gram=np.diag(trapezoid_weights(n_nodes, grid.h)[1:-1]))
    for i, response in enumerate(u):
        rfft(system.load_map.T @ response, n_fft, out=kernel.outputs_t1[i])
        rfft(response[system.deflection_dofs], n_fft,
             out=kernel.adjoint_t1[:, i])
    return kernel


@pytest.fixture(scope="session")
def full_kernel():
    """The unfactored impulse kernel of a system on a grid."""
    return _full_kernel


def _modal_load_by_mode(grid, c):
    """The values of `verify._modal_load`, summed one space mode at a
    time: the reference of its single contraction."""
    values = np.zeros((grid.n_nodes, grid.n_times))
    for shape, (a, b), (sin, cos) in zip(verify._mode_shapes(grid),
                                         np.reshape(c, (4, 2)),
                                         verify._load_histories(grid)):
        values += shape[:, None] * (a * sin + b * cos)
    return values


@pytest.fixture(scope="session")
def modal_load_by_mode():
    """The nodal values of a modal load of 8 coefficients, mode by mode."""
    return _modal_load_by_mode


def _draw_load(grid, rng):
    """A smooth random load of the four lowest space-time modes, of 8
    normal coefficients, formed mode by mode: the verification checks'
    load draw, made without their factors."""
    return LoadField(_modal_load_by_mode(grid, rng.normal(size=8)), grid)


def _draw_moment(grid, rng):
    """A smooth random series of three sine modes, of 3 normal
    coefficients, and its analytic derivative, from `_moment_factors`:
    the verification checks' moment draw.  It vanishes at t = 0, as the
    adjoint trace argument requires."""
    a = rng.normal(size=3)[:, None]
    modes, rates = verify._moment_factors(grid)
    return sum(a * modes), sum(a * rates)


@pytest.fixture(scope="session")
def draws():
    """The random load (`draws.load`) and moment series with its
    derivative (`draws.moment`) of a grid, drawn from a generator."""
    return SimpleNamespace(load=_draw_load, moment=_draw_moment)


def _rows_of_one(check, series, grid, coeffs, *data, tag="", **options):
    """The rows of the estimate check `check` on one scenario, at the
    default slack: its series (a tuple of (n_times,) arrays) and data
    (F^2, or p' and q') given a leading scenario axis of one, under the
    tag `tag`."""
    (rows,) = check(np.asarray(series)[:, None], grid, coeffs,
                    *(np.asarray(x)[None] for x in data), DEFAULT_SLACK,
                    [tag], **options)
    return rows


@pytest.fixture(scope="session")
def rows_of_one():
    """An estimate check's rows on one trajectory's or field's series."""
    return _rows_of_one


def _dense(ab):
    """The symmetric matrix held in upper band storage ab[k + i - j, j]."""
    k = ab.shape[0] - 1
    upper = sum(np.diag(ab[k - d, d:], d) for d in range(k + 1))
    return upper + np.triu(upper, 1).T


@pytest.fixture(scope="session")
def dense():
    """Band storage to dense, for tests that check matrix invariants."""
    return _dense


def _modal_response(coeffs, k, omega, t):
    """q(t) of rho q'' + (mu + kappa k^4) q' + (T_r k^2 + r k^4) q =
    sin(omega t) with q(0) = q'(0) = 0, on constant coefficients: the
    steady sine response A sin + B cos plus the free response a_1 e^(l_1
    t) + a_2 e^(l_2 t) that cancels its start."""
    rho, mu, T_r, r, kappa = (getattr(coeffs, name)[0] for name in
                              ("rho_A", "mu", "T_r", "r", "kappa"))
    m, c, s = rho, mu + kappa * k ** 4, T_r * k ** 2 + r * k ** 4
    det = (s - m * omega ** 2) ** 2 + (c * omega) ** 2
    A, B = (s - m * omega ** 2) / det, -c * omega / det
    roots = np.roots([m, c, s]).astype(complex)
    a = np.linalg.solve(np.array([np.ones(2), roots]), [-B, -A * omega])
    return (A * np.sin(omega * t) + B * np.cos(omega * t)
            + (a[:, None] * np.exp(roots[:, None] * t)).sum(axis=0).real)


def _modal_slopes(grid, coeffs, n, omega):
    """The continuum end slopes (theta_0, theta_l) of the simply
    supported beam with constant coefficients under the load
    sin(n pi x / l) sin(omega t), from rest.  The load excites mode n
    alone, u = q(t) sin(k x) with k = n pi / l and q the
    `_modal_response`.  The slopes are theta_0 = k q and theta_l = k
    cos(k l) q."""
    k = n * np.pi / grid.length
    q = _modal_response(coeffs, k, omega, grid.times)
    return k * q, k * np.cos(k * grid.length) * q


@pytest.fixture(scope="session")
def modal_slopes():
    """The continuum end slopes of one mode's sine load, on constant
    coefficients: the forward solver's modal oracle."""
    return _modal_slopes


def _modal_adjoint(grid, coeffs, n, omega):
    """Moment data p = sin(omega (T - t)), q = -p / 2 and the mode-n
    coefficient a(t) = (2 / l) int phi sin(k x) dx, in t, of the
    continuum adjoint field phi of the simply supported beam with
    constant coefficients, k = n pi / l.  In tau = T - t, as in
    `solve_adjoint`, the data force the end rotations from rest, so the
    test function sin(k x) meets them through its slopes k and k cos(k
    l): (l / 2) (rho a'' + (mu + kappa k^4) a' + (T_r k^2 + r k^4) a) =
    k (p + cos(k l) q), a sine in tau.  a is that many times the
    `_modal_response`, read backwards in time."""
    k = n * np.pi / grid.length
    p = np.sin(omega * (grid.final_time - grid.times))
    q = -0.5 * p
    drive = 2.0 / grid.length * k * (1.0 - 0.5 * np.cos(k * grid.length))
    return p, q, drive * _modal_response(coeffs, k, omega, grid.times)[::-1]


@pytest.fixture(scope="session")
def modal_adjoint():
    """Moment data and the continuum adjoint field's coefficient of one
    mode: the adjoint solver's modal oracle."""
    return _modal_adjoint


def _variable_coefficients(grid, rng):
    """Smooth random coefficient fields with bounds at their extrema."""
    x = grid.nodes / grid.length
    fields = {}
    for name, base in (("rho_A", 1.0), ("mu", 0.05), ("T_r", 0.1),
                       ("r", 0.8), ("kappa", 0.02)):
        a, b = rng.uniform(-0.4, 0.4, size=2)
        fields[name] = base * (1.0 + a * np.sin(np.pi * x) + b * x)
    bounds = CoefficientBounds(
        *(f(fields[name]) for name in ("rho_A", "mu", "T_r", "r", "kappa")
          for f in (np.min, np.max)))
    return CoefficientSet(bounds=bounds, **fields)


def _random_case(seed):
    """A random small grid with random variable coefficients, its system
    and the generator that drew them."""
    rng = np.random.default_rng(seed)
    grid = SpaceTimeGrid(length=rng.uniform(0.5, 2.0),
                         final_time=rng.uniform(0.5, 2.0),
                         n_elements=int(rng.integers(4, 24)),
                         n_steps=int(rng.integers(16, 128)))
    coeffs = _variable_coefficients(grid, rng)
    return grid, coeffs, assemble(grid, coeffs), rng


@pytest.fixture(scope="session")
def variable_coefficients():
    """Random variable coefficients of a grid, drawn from a generator."""
    return _variable_coefficients


@pytest.fixture(scope="session")
def random_case():
    """(grid, coeffs, system, rng) of a random case, from its seed."""
    return _random_case


@pytest.fixture
def count_calls(monkeypatch):
    """Install counters on beamload functions at every module that
    imported them by name, and return the Counter of their calls by
    function name."""
    def install(*functions):
        calls = collections.Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        wrappers = {id(fn): (fn, counted(fn)) for fn in functions}
        for name, module in list(sys.modules.items()):
            if name == "beamload" or name.startswith("beamload."):
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        monkeypatch.setattr(module, attr, hit[1])
        return calls
    return install


def _nodal_landweber(measurements, coeffs, grid, config):
    """`inversion.run_inversion` as it was when it iterated on nodal
    load fields: each iterate a LoadField, each trial evaluated by
    `evaluate_objective`, each gradient the nodal field of
    `compute_gradient`, each norm a space-time inner product and the
    radial projection written out.  The oracle of the coordinate loop."""
    kernel = impulse_kernel(assemble(grid, coeffs), grid)
    C_F = config.C_F
    omega = config.omega or inversion.default_step(grid, coeffs, config)
    morozov = config.tau_d * config.noise_delta
    morozov_sq = morozov * morozov

    def step(load, grad, size):
        new = LoadField(load.values - size * grad, load.grid)
        if C_F is not None:
            norm = l2_norm_spacetime(new)
            if not (norm ** 2 <= C_F or norm == 0.0):
                new = LoadField(new.values * (np.sqrt(C_F) / norm), grid)
        return new

    load = LoadField.zero(grid)
    state = inversion.InversionState(load=load, omega=omega,
                                     kernel_rank=kernel.rank)
    increases = 0
    evaluation = evaluate_objective(load, measurements, kernel)
    for n in range(config.max_iterations + 1):
        grad = compute_gradient(evaluation)
        J = evaluation.J
        gnorm = np.sqrt(spacetime_inner(grad, grad, grid))
        state.J_history.append(J)
        state.grad_history.append(gnorm)
        state.load = load
        if 2.0 * J <= morozov_sq:
            state.stop_reason = "discrepancy"
            break
        if gnorm < inversion.GRAD_TOL:
            state.stop_reason = "gradient"
            break
        if inversion._stagnated(state.J_history):
            state.stop_reason = "stagnation"
            break
        if n == config.max_iterations:
            state.stop_reason = "max-iter"
            break
        if config.step_rule == "fixed":
            if len(state.J_history) >= 2 and J > state.J_history[-2]:
                increases += 1
                if increases >= 3:
                    raise DivergenceError("misfit increased for 3 "
                                          "consecutive fixed steps")
            else:
                increases = 0
            load = step(load, grad, omega)
            evaluation = evaluate_objective(load, measurements, kernel)
            continue
        size = omega * inversion.BACKTRACK_START
        for _ in range(inversion.BACKTRACK_HALVINGS):
            trial = step(load, grad, size)
            trial_evaluation = evaluate_objective(trial, measurements,
                                                  kernel)
            if trial_evaluation.J < J:
                load, evaluation = trial, trial_evaluation
                break
            size *= 0.5
    return state


@pytest.fixture(scope="session")
def nodal_landweber():
    """The nodal Landweber loop, the reference of `run_inversion`."""
    return _nodal_landweber
