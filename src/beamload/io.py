"""CSV serialization of fields, measurements and reports.

All floating-point output uses 17 significant digits so round trips are
bit-exact.
"""

import hashlib

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError
from .model import LoadField, MeasurementSeries

_FMT = "%.17g"


def _fmt(value):
    return _FMT % value


def save_coefficient(path, nodes, values):
    """Coefficient field as `x,value` rows."""
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x, v in zip(nodes, values):
            fh.write(f"{_fmt(x)},{_fmt(v)}\n")


def _check_coordinates(path, found, expected, name):
    """A CSV's coordinate column must match the grid's to 1e-12."""
    if not np.allclose(found, expected, rtol=1e-12, atol=1e-12):
        raise DimensionError(f"{path}: {name} coordinates do not match grid")


def load_coefficient(path, nodes):
    """Read a coefficient CSV and check it matches the grid nodes."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    if data.shape[0] != len(nodes):
        raise DimensionError(
            f"{path}: {data.shape[0]} samples, grid has {len(nodes)} nodes")
    _check_coordinates(path, data[:, 0], nodes, "node")
    return data[:, 1].copy()


def _save_rows(path, nodes, times, values, name):
    """Nodal field as `x,t,<name>` rows, x-major."""
    with open(path, "w") as fh:
        fh.write(f"x,t,{name}\n")
        for i, x in enumerate(nodes):
            for j, t in enumerate(times):
                fh.write(f"{_fmt(x)},{_fmt(t)},{_fmt(values[i, j])}\n")


def save_load(path, load):
    """Load field as `x,t,value` rows, x-major."""
    _save_rows(path, load.grid.nodes, load.grid.times, load.values, "value")


def load_load(path, grid):
    """Read an x-major `x,t,value` CSV and check it matches the grid."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    expected = grid.n_nodes * grid.n_times
    if data.shape[0] != expected:
        raise DimensionError(f"{path}: {data.shape[0]} rows, "
                             f"grid expects {expected}")
    _check_coordinates(path, data[:, 0], np.repeat(grid.nodes, grid.n_times),
                       "node")
    _check_coordinates(path, data[:, 1], np.tile(grid.times, grid.n_nodes),
                       "time")
    values = data[:, 2].reshape(grid.n_nodes, grid.n_times)
    return LoadField(values, grid)


def save_field(path, nodes, times, values):
    """Generic full-field dump as `x,t,u` rows."""
    _save_rows(path, nodes, times, values, "u")


def save_measurements(path, times, series):
    with open(path, "w") as fh:
        fh.write("t,theta0,thetaL\n")
        for t, a, b in zip(times, series.theta0, series.thetaL):
            fh.write(f"{_fmt(t)},{_fmt(a)},{_fmt(b)}\n")


def load_measurements(path, grid):
    """Read a `t,theta0,thetaL` CSV; non-finite slopes are a numeric
    failure (DivergenceError), a wrong row count or time column a
    DimensionError."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    if data.shape[0] != grid.n_times:
        raise DimensionError(f"{path}: {data.shape[0]} rows, "
                             f"grid expects {grid.n_times}")
    _check_coordinates(path, data[:, 0], grid.times, "time")
    if not np.all(np.isfinite(data[:, 1:3])):
        raise DivergenceError(f"{path}: non-finite measurements")
    return MeasurementSeries(theta0=data[:, 1].copy(),
                             thetaL=data[:, 2].copy())


def save_sidecar(path, entries):
    """Plain `key=value` metadata file."""
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def load_sidecar(path):
    entries = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    return entries


def save_iteration_log(path, state):
    with open(path, "w") as fh:
        fh.write("iter,J,grad_norm,discrepancy\n")
        for i, (J, gn, d) in enumerate(zip(state.J_history,
                                           state.grad_history,
                                           state.discrepancy_history)):
            fh.write(f"{i},{_fmt(J)},{_fmt(gn)},{_fmt(d)}\n")


def save_check_report(path, rows):
    """Inequality report rows as `check,scenario,lhs,rhs,pass`."""
    with open(path, "w") as fh:
        fh.write("check,scenario,lhs,rhs,pass\n")
        for name, scenario, lhs, rhs, ok in rows:
            fh.write(f"{name},{scenario},{_fmt(lhs)},{_fmt(rhs)},"
                     f"{'true' if ok else 'false'}\n")


def parse_config(path):
    """Parse a line-oriented `key = value` config with `#` comments."""
    entries = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return entries


def config_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
