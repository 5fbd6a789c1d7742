"""The impulse-response kernel against the Newmark solvers it stands in for,
and the discrete identities it rests on: time-shift invariance and
reciprocity of the Newmark map, and batched passes that equal single
ones."""

import dataclasses
import weakref

import numpy as np
import pytest

from beamload import adjoint, forward, inversion, verify
from beamload.adjoint import solve_adjoint
from beamload.assembly import assemble
from beamload.errors import DimensionError, DivergenceError
from beamload.forward import (end_rotation_responses, impulse_kernel,
                              newmark_integrate, solve_forward)
from beamload.measurements import ModalLoad
from beamload.model import (CoefficientBounds, CoefficientSet, LoadField,
                            MeasurementSeries, SpaceTimeGrid)
from test_lapack import _no_library, fallback

# Newmark's own round-off (solve(3F)/3 against solve(F)) reaches 4.5e-10
# at 64x512 and 5e-9 at 128x1024, so finer grids are not gated at 1e-9
TOL = 1e-9


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def assert_factored_shapes(kernel, grid):
    """Spectra of r_out and r_adj series, bases (n, r) over the nodes
    with r <= n, square at full rank, and the coupling and field Gram of
    the coordinates."""
    r_out, r_adj = kernel.rank
    assert kernel.outputs_t1.shape[:2] == (2, r_out)
    assert kernel.adjoint_t1.shape[:2] == (r_adj, 2)
    for basis, n, r in ((kernel.load_basis, grid.n_nodes, r_out),
                        (kernel.field_basis, grid.n_nodes - 2, r_adj)):
        assert basis.shape == (n, r) and r <= n
    assert kernel.coupling.shape == (r_out, r_adj)
    assert kernel.field_gram.shape == (r_adj, r_adj)


@pytest.mark.parametrize("kind", ["constant", "variable"])
@pytest.mark.parametrize("n_elements,n_steps", [(16, 96), (64, 512)])
def test_kernel_matches_newmark(n_elements, n_steps, kind,
                                variable_coefficients):
    grid = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=n_elements,
                         n_steps=n_steps)
    rng = np.random.default_rng(n_elements)
    if kind == "constant":
        coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.1,
                                         r=0.8, kappa=0.02)
    else:
        coeffs = variable_coefficients(grid, rng)
    system = assemble(grid, coeffs)
    kernel = impulse_kernel(system, grid)

    # white-noise data: nonzero load at t_0 and nonzero p(T), q(T)
    load = LoadField(rng.normal(size=(grid.n_nodes, grid.n_times)), grid)
    assert np.all(load.values[:, 0] != 0.0)
    traj = solve_forward(coeffs, load, grid, system=system)
    theta0, thetaL = kernel.outputs(load.values)
    assert rel_l2(theta0, traj.outputs.theta0) < TOL
    assert rel_l2(thetaL, traj.outputs.thetaL) < TOL

    p, q = rng.normal(size=(2, grid.n_times))
    adj = solve_adjoint(coeffs, p, q, grid, system=system)
    phi = kernel.adjoint(p, q)
    assert_factored_shapes(kernel, grid)
    assert phi.shape == (grid.n_nodes, grid.n_times)
    assert np.all(phi[[0, -1]] == 0.0)
    assert rel_l2(phi[1:-1], adj.phi[system.deflection_dofs]) < TOL
    # the coordinate series are in t, as the nodal field is
    phi = kernel.field_basis @ kernel.adjoint_series(np.array([p, q]))
    assert rel_l2(phi, adj.phi[system.deflection_dofs]) < TOL


def compressing_case(n_elements, n_steps):
    """The grid and system of a constant-coefficient case with kappa =
    0.02, whose responses have low numerical rank at these grids."""
    grid = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=n_elements,
                         n_steps=n_steps)
    coeffs = CoefficientSet.constant(grid, rho_A=1.0, mu=0.05, T_r=0.1,
                                     r=0.8, kappa=0.02)
    return grid, assemble(grid, coeffs)


COMPRESSING = [(32, 256), (64, 512)]


def response_rows(system, u):
    """The rows that `impulse_kernel` factors: load_map' u_i and the
    interior deflection rows of u_i, the two impulses side by side."""
    return (np.concatenate([system.load_map.T @ r for r in u], axis=1),
            np.concatenate([r[system.deflection_dofs] for r in u], axis=1))


@pytest.mark.parametrize("n_elements,n_steps", COMPRESSING)
def test_factored_kernel_matches_full_kernel(n_elements, n_steps,
                                             full_kernel):
    """Where the responses compress, the factored operators agree with
    the unfactored kernel's to 1e-12 relative."""
    grid, system = compressing_case(n_elements, n_steps)
    u = end_rotation_responses(system, grid)[0]
    kernel = impulse_kernel(system, grid, u)
    full = full_kernel(system, grid, u)
    r_out, r_adj = kernel.rank
    assert r_out < grid.n_nodes and r_adj < grid.n_nodes - 2
    assert_factored_shapes(kernel, grid)
    rng = np.random.default_rng(n_elements)
    for _ in range(3):
        values = rng.normal(size=(grid.n_nodes, grid.n_times))
        for ours, theirs in zip(kernel.outputs(values), full.outputs(values)):
            assert rel_l2(ours, theirs) <= 1e-12
        p, q = rng.normal(size=(2, grid.n_times))
        phi = kernel.adjoint(p, q)
        assert np.all(phi[[0, -1]] == 0.0)
        assert rel_l2(phi, full.adjoint(p, q)) <= 1e-12


@pytest.mark.parametrize("n_elements,n_steps", COMPRESSING + [(16, 96)])
def test_factors_are_orthonormal_and_meet_the_rank_rule(n_elements,
                                                        n_steps):
    """rows = C W + residual with W W' = I, C = rows W', and no residual
    row above max(m, n) eps times the largest row: numpy's `matrix_rank`
    tolerance, at fewer series than rows where the responses compress,
    and with W an orthonormal basis of all m rows at full rank (16x96)."""
    grid, system = compressing_case(n_elements, n_steps)
    u = end_rotation_responses(system, grid)[0]
    for rows in response_rows(system, u):
        C, W = forward._factor_rows(rows)
        m, n = rows.shape
        if (n_elements, n_steps) == (16, 96):
            assert W.shape[0] == m
        else:
            assert W.shape[0] < m
        assert C.shape == (m, W.shape[0]) and W.shape[1] == n
        assert np.max(np.abs(W @ W.T - np.eye(len(W)))) <= 1e-14
        assert np.array_equal(C, rows @ W.T)
        largest = np.linalg.norm(rows, axis=1).max()
        tol = max(m, n) * np.finfo(float).eps * largest
        assert np.linalg.norm(rows - C @ W, axis=1).max() <= tol


@pytest.mark.parametrize("n", [0, 5])
def test_factor_rows_of_no_rows_is_empty(n):
    """No rows, as a rank-0 kernel stacks for the Landweber loop, factor
    into an empty C (0, 0) and W (0, n), with no floating-point
    exception."""
    with np.errstate(all="raise"):
        C, W = forward._factor_rows(np.empty((0, n)))
    assert C.shape == (0, 0) and W.shape == (0, n)


@pytest.mark.parametrize("seed", [None] + list(range(12)))
def test_full_rank_kernel_is_the_full_kernel(seed, small_grid, small_coeffs,
                                             random_case, full_kernel):
    """At full numerical rank, on 16x96 and on the small random grids,
    the bases are square, and the kernel's operators agree with the
    unfactored kernel's to 1e-12 relative, the bound where the responses
    compress."""
    if seed is None:
        grid, system = small_grid, assemble(small_grid, small_coeffs)
        rng = np.random.default_rng(0)
    else:
        grid, _, system, rng = random_case(seed)
    kernel, full = impulse_kernel(system, grid), full_kernel(system, grid)
    assert kernel.rank == (grid.n_nodes, grid.n_nodes - 2)
    assert_factored_shapes(kernel, grid)
    values = rng.normal(size=(grid.n_nodes, grid.n_times))
    p, q = rng.normal(size=(2, grid.n_times))
    for ours, theirs in zip(kernel.outputs(values), full.outputs(values)):
        assert rel_l2(ours, theirs) <= 1e-12
    phi = kernel.adjoint(p, q)
    assert np.all(phi[[0, -1]] == 0.0)
    assert rel_l2(phi, full.adjoint(p, q)) <= 1e-12


def test_kernel_rejects_series_of_another_time_grid(small_grid,
                                                    small_coeffs):
    """A longer series would be cut to `n_fft` points and wrap around."""
    kernel = impulse_kernel(assemble(small_grid, small_coeffs), small_grid)
    finer = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=16,
                          n_steps=2 * small_grid.n_steps)
    with pytest.raises(DimensionError):
        kernel.outputs(np.ones((finer.n_nodes, finer.n_times)))
    with pytest.raises(DimensionError):
        kernel.adjoint(*np.ones((2, finer.n_times)))


def test_kernel_rejects_non_finite_load(small_grid, small_coeffs):
    kernel = impulse_kernel(assemble(small_grid, small_coeffs), small_grid)
    values = np.zeros((small_grid.n_nodes, small_grid.n_times))
    values[3, 7] = np.nan
    with pytest.raises(DivergenceError, match="non-finite force input"):
        kernel.outputs(values)


def test_kernel_rejects_non_finite_moment_data(small_grid, small_coeffs):
    """Non-finite moment data are a numeric failure, as in
    `solve_adjoint`, not a size mismatch."""
    kernel = impulse_kernel(assemble(small_grid, small_coeffs), small_grid)
    p = np.zeros(small_grid.n_times)
    bad = p.copy()
    bad[3] = np.inf
    with pytest.raises(DivergenceError, match="adjoint inputs"):
        kernel.adjoint(p, bad)
    with pytest.raises(DivergenceError, match="adjoint inputs"):
        kernel.adjoint_series(np.array([bad, p]))


def test_each_consumer_builds_one_kernel(small_grid, small_coeffs,
                                         monkeypatch):
    """The inversion loops and the verification checks build the kernel
    once per call from no kept kernel, however many iterations,
    scenarios or triples they run; the duality checks make no Newmark
    pass beyond the kernel's one."""
    built = []
    passes = []

    def counted(*args):
        built.append(1)
        return impulse_kernel(*args)

    def counted_pass(*args):
        passes.append(1)
        return newmark_integrate(*args)

    for module in (forward, verify):
        monkeypatch.setattr(module, "impulse_kernel", counted)
    for module in (forward, adjoint):
        monkeypatch.setattr(module, "newmark_integrate", counted_pass)
    series = MeasurementSeries(*np.ones((2, small_grid.n_times)))

    def builds(run, *args, **kwargs):
        built.clear()
        forward._beam_kernels.clear()
        run(*args, **kwargs)
        return len(built)

    for n in (5, 20):
        config = inversion.InversionConfig(step_rule="backtracking",
                                           max_iterations=n)
        assert builds(inversion.run_inversion, series, small_coeffs,
                      small_grid, config=config) == 1
    assert builds(inversion.reconstruct_parametric, series, small_coeffs,
                  small_grid, ModalLoad((1.0, 0.5))) == 1
    for n in (1, 3):
        assert builds(verify.verify_inequality_suite, small_grid,
                      small_coeffs, n_scenarios=n) == 1
    assert builds(verify.gradient_fd_checks, small_grid, small_coeffs) == 1
    for n in (1, 3):
        passes.clear()
        assert builds(verify.duality_checks, small_grid, small_coeffs,
                      n_triples=n) == 1
        assert len(passes) == 1


@pytest.mark.parametrize("name", ["outputs_t1", "adjoint_t1", "load_basis",
                                  "field_basis", "coupling", "field_gram"])
def test_kernel_arrays_are_read_only(name, small_grid, small_coeffs):
    """A kept kernel is shared by every caller on its beam, so no caller
    can write into it."""
    array = getattr(forward.beam_kernel(small_grid, small_coeffs), name)
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        array *= 2.0


def _wide_coeffs(grid, **changes):
    """Constant small-case coefficients within bounds twice as wide, so
    that a sample may change within them; `changes` maps a field to the
    node and the factor that scale its sample there."""
    values = dict(rho_A=1.0, mu=0.05, T_r=0.1, r=0.8, kappa=0.02)
    bounds = CoefficientBounds(*(b for v in values.values()
                                 for b in (0.5 * v, 2.0 * v)))
    fields = {name: np.full(grid.n_nodes, v) for name, v in values.items()}
    for name, (node, factor) in changes.items():
        fields[name][node] *= factor
    return CoefficientSet(bounds=bounds, **fields)


# the two consumers of a beam's store, and what each builds from none:
# `beam_kernel` the kernel, `audit_operators` the audit operators, whose
# second Newmark pass gives the kernel
CONSUMERS = (
    (forward.beam_kernel,
     {"impulse_kernel": 1, "assemble": 1, "newmark_integrate": 1}),
    (verify.audit_operators,
     {"impulse_kernel": 1, "assemble": 1, "newmark_integrate": 2}))


def assert_rebuilds(count_calls, kept_beam, new_beam):
    """For each consumer of the store, from no kept beam: after it kept
    what it builds for the (grid, coeffs) pair `kept_beam`, it returns
    that again with no build, then builds that of `new_beam` once and
    keeps it."""
    calls = count_calls(forward.impulse_kernel, assemble,
                        forward.newmark_integrate)
    for build, counts in CONSUMERS:
        forward._beam_kernels.clear()
        kept = build(*kept_beam)
        calls.clear()
        assert build(*kept_beam) is kept
        assert sum(calls.values()) == 0
        made = build(*new_beam)
        assert made is not kept
        assert build(*new_beam) is made
        assert calls == counts


@pytest.mark.parametrize("field", ["rho_A", "mu", "T_r", "r", "kappa"])
def test_one_coefficient_sample_rebuilds_the_kernel(field, small_grid,
                                                    count_calls):
    assert_rebuilds(count_calls, (small_grid, _wide_coeffs(small_grid)),
                    (small_grid, _wide_coeffs(small_grid,
                                              **{field: (3, 1.01)})))


@pytest.mark.parametrize("bound", ["rho0", "mu1", "Tr1", "r0", "kappa1"])
def test_one_bound_rebuilds_the_kernel(bound, small_grid, count_calls):
    coeffs = _wide_coeffs(small_grid)
    bounds = dataclasses.replace(
        coeffs.bounds, **{bound: getattr(coeffs.bounds, bound) * 1.01})
    assert_rebuilds(count_calls, (small_grid, coeffs),
                    (small_grid, dataclasses.replace(coeffs, bounds=bounds)))


@pytest.mark.parametrize("refine", ["refined", "time"])
def test_another_grid_rebuilds_the_kernel(refine, small_grid, count_calls):
    """`grid.refined()` halves the mesh and the step; a grid that halves
    the step alone keeps every coefficient sample and bound."""
    coeffs = _wide_coeffs(small_grid)
    if refine == "refined":
        new_beam = small_grid.refined(), _wide_coeffs(small_grid.refined())
    else:
        new_beam = (dataclasses.replace(small_grid,
                                        n_steps=2 * small_grid.n_steps),
                    coeffs)
    assert_rebuilds(count_calls, (small_grid, coeffs), new_beam)


def test_another_lapack_backend_rebuilds_the_kernel(small_grid,
                                                    small_coeffs,
                                                    count_calls):
    """A kernel or an audit factored on numpy's OpenBLAS is not reused
    on the scipy.linalg fallback, nor the fallback's on OpenBLAS."""
    calls = count_calls(forward.impulse_kernel)
    for build, _ in CONSUMERS:
        forward._beam_kernels.clear()
        kept = build(small_grid, small_coeffs)
        calls.clear()
        with fallback(_no_library):
            on_fallback = build(small_grid, small_coeffs)
            assert build(small_grid, small_coeffs) is on_fallback
        assert calls["impulse_kernel"] == 1 and on_fallback is not kept
        assert build(small_grid, small_coeffs) is not on_fallback
        assert calls["impulse_kernel"] == 2


def test_one_kernel_is_kept(small_grid, small_coeffs):
    """After a second beam the first beam's kernel is no longer
    referenced."""
    first = weakref.ref(forward.beam_kernel(small_grid, small_coeffs))
    assert first() is not None
    forward.beam_kernel(small_grid, _wide_coeffs(small_grid))
    assert first() is None
    assert len(forward._beam_kernels) == 1


def test_one_audit_is_kept(small_grid, small_coeffs):
    """After a second beam the first beam's kernel and audit bases are no
    longer referenced: one beam's store is kept, whichever consumer
    asks next."""
    _, (grams, _), (adjoint_grams, _), outputs, _, _ = (
        verify.audit_operators(small_grid, small_coeffs))
    kernel = forward.beam_kernel(small_grid, small_coeffs)
    refs = [weakref.ref(a)
            for a in (kernel, grams, adjoint_grams[0].base, outputs)]
    del kernel, grams, adjoint_grams, outputs
    assert all(ref() is not None for ref in refs)
    forward.beam_kernel(small_grid, _wide_coeffs(small_grid))
    assert all(ref() is None for ref in refs)
    assert len(forward._beam_kernels) == 1


def newmark_outputs(coeffs, grid, system):
    """The end-slope map of `solve_forward`, on nodal load values."""
    def solve(values):
        out = solve_forward(coeffs, LoadField(values, grid), grid,
                            system=system).outputs
        return out.theta0, out.thetaL
    return solve


@pytest.mark.parametrize("seed", range(4))
def test_time_shift_invariance(seed, random_case):
    """A load that starts s steps later gives outputs s steps later."""
    grid, coeffs, system, rng = random_case(seed)
    shift = int(rng.integers(1, grid.n_steps // 2))
    values = rng.normal(size=(grid.n_nodes, grid.n_times))
    values[:, 0] = 0.0
    shifted = np.zeros_like(values)
    shifted[:, shift:] = values[:, :grid.n_times - shift]

    for solve in (impulse_kernel(system, grid).outputs,
                  newmark_outputs(coeffs, grid, system)):
        base = np.array(solve(values))
        late = np.array(solve(shifted))
        scale = np.max(np.abs(base))
        assert np.max(np.abs(late[:, :shift])) <= 1e-12 * scale
        assert np.max(np.abs(late[:, shift:] - base[:, :grid.n_times
                                                   - shift])) < TOL * scale


@pytest.mark.parametrize("seed", range(4))
def test_linearity(seed, random_case):
    """The outputs of a F1 + b F2 are a times those of F1 plus b times
    those of F2, with nonzero loads at t_0."""
    grid, coeffs, system, rng = random_case(seed)
    F1, F2 = rng.normal(size=(2, grid.n_nodes, grid.n_times))
    a, b = rng.uniform(-3.0, 3.0, size=2)

    for solve in (impulse_kernel(system, grid).outputs,
                  newmark_outputs(coeffs, grid, system)):
        combined = np.array(solve(a * F1 + b * F2))
        parts = a * np.array(solve(F1)) + b * np.array(solve(F2))
        scale = np.max(np.abs(combined))
        assert scale > 0
        assert np.max(np.abs(combined - parts)) < TOL * scale


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("step", [0, 1])
def test_reciprocity(seed, step, random_case):
    """The response at DOF j to an impulse at theta_0 equals the theta_0
    response to an impulse at j, for impulses at t_0 and at t_1; j is the
    other end rotation or a random DOF."""
    grid, _, system, rng = random_case(seed)
    i = system.theta0_dof
    for j in (system.thetaL_dof, int(rng.integers(1, system.n_dofs))):
        responses = []
        for src, dst in ((i, j), (j, i)):
            forces = np.zeros((grid.n_times, system.n_dofs))
            forces[step, src] = 1.0
            u, _ = newmark_integrate(system.M, system.C, system.K,
                                     forces, grid.dt)
            responses.append(u[dst])
        scale = np.max(np.abs(responses[0]))
        assert scale > 0
        assert np.max(np.abs(responses[0] - responses[1])) < TOL * scale


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_cases", [1, 2, 3])
def test_batched_newmark_equals_single_passes(seed, n_cases, random_case):
    """A batch of load cases integrates each case bit for bit as its own
    pass does, even when the bands hold junk in the unused upper-left
    corner entries, which must not couple neighbouring cases."""
    grid, _, system, rng = random_case(seed)
    bands = [ab.copy() for ab in (system.M, system.C, system.K)]
    kd = bands[0].shape[0] - 1
    for ab in bands:
        for d in range(1, kd + 1):
            ab[kd - d, :d] = rng.normal(size=d)
    forces = rng.normal(size=(grid.n_times, n_cases, system.n_dofs))
    u, v = newmark_integrate(*bands, forces, grid.dt)
    assert u.shape == v.shape == (n_cases, system.n_dofs, grid.n_times)
    for b in range(n_cases):
        u1, v1 = newmark_integrate(*bands, forces[:, b], grid.dt)
        assert np.array_equal(u[b], u1) and np.array_equal(v[b], v1)

    forces[-1, n_cases - 1, 0] = np.inf
    with pytest.raises(DivergenceError):
        newmark_integrate(*bands, forces, grid.dt)


def test_batched_solvers_equal_single_solves(small_grid, small_coeffs):
    """`solve_forward` of a list of loads gives the single solves'
    trajectories."""
    rng = np.random.default_rng(5)
    system = assemble(small_grid, small_coeffs)
    loads = [LoadField(rng.normal(size=(small_grid.n_nodes,
                                        small_grid.n_times)), small_grid)
             for _ in range(3)]
    trajs = solve_forward(small_coeffs, loads, small_grid, system=system)
    assert len(trajs) == 3
    for traj, load in zip(trajs, loads):
        one = solve_forward(small_coeffs, load, small_grid, system=system)
        for a, b in ((traj.u, one.u), (traj.v, one.v),
                     (traj.outputs.theta0, one.outputs.theta0),
                     (traj.outputs.thetaL, one.outputs.thetaL)):
            assert np.array_equal(a, b)


def test_next_fast_len_is_scipys_real_length():
    from scipy.fft import next_fast_len
    wrong = [n for n in range(1, 20000)
             if forward.next_fast_len(n) != next_fast_len(n, real=True)]
    assert wrong == []


def assert_transforms_equal_scipy_fft(grid, system, rng, monkeypatch):
    """The kernel's spectra and its convolutions from numpy.fft equal
    those of the same code run on scipy.fft, bit for bit."""
    import scipy.fft
    loads = rng.normal(size=(grid.n_nodes, grid.n_times))
    moments = rng.normal(size=(2, grid.n_times))

    def transforms():
        kernel = impulse_kernel(system, grid)
        return (kernel.n_fft, kernel.outputs_t1, kernel.adjoint_t1,
                np.array(kernel.outputs(loads)), kernel.adjoint(*moments))

    def scipy_rfft(x, n, out=None):
        # scipy.fft.rfft has no `out`; the kernel fills its spectra in place
        if out is None:
            return scipy.fft.rfft(x, n)
        out[...] = scipy.fft.rfft(x, n)
        return out

    ours = transforms()
    with monkeypatch.context() as patch:
        patch.setattr(forward, "rfft", scipy_rfft)
        patch.setattr(forward, "irfft", scipy.fft.irfft)
        patch.setattr(forward, "next_fast_len",
                      lambda n: scipy.fft.next_fast_len(n, real=True))
        reference = transforms()
    assert ours[0] == reference[0]
    for a, b in zip(ours[1:], reference[1:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_transforms_equal_scipy_fft_bit_for_bit(seed, random_case,
                                                       monkeypatch):
    grid, _, system, rng = random_case(seed)
    assert_transforms_equal_scipy_fft(grid, system, rng, monkeypatch)


def test_factored_kernel_transforms_equal_scipy_fft_bit_for_bit(
        monkeypatch):
    """As above, on a grid whose kernel keeps factored spectra."""
    grid, system = compressing_case(32, 256)
    assert impulse_kernel(system, grid).rank[0] < grid.n_nodes
    assert_transforms_equal_scipy_fft(grid, system,
                                      np.random.default_rng(4), monkeypatch)
