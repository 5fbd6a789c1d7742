"""CSV serialization of fields, measurements and reports.

Every CSV is a table: a header line, then comma-separated rows.
`save_table` writes one and `_read_table` reads one.  All floating-point
output uses 17 significant digits so round trips are bit-exact.
"""

import hashlib
import warnings

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError
from .model import LoadField, MeasurementSeries

_BLOCK = 4096


def _write_rows(path, header, line, rows):
    """`header`, then `line % tuple(row)` for each row."""
    with open(path, "w") as fh:
        fh.write(f"{header}\n")
        fh.writelines(line % tuple(row) for row in rows)


def save_table(path, header, columns):
    """Equal-length numeric columns as rows of `%.17g` values.  Rows are
    stacked `_BLOCK` at a time, so a large table is never held whole."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = (row for i in range(0, len(columns[0]), _BLOCK)
            for row in np.column_stack([c[i:i + _BLOCK]
                                        for c in columns]).tolist())
    _write_rows(path, header, line, rows)


def _read_table(path, n_cols, **coordinates):
    """The body of the table at `path`: `n_cols` wide, its leading columns
    the grid's `coordinates` ({name: values}) to 1e-12.  A refusal names
    the file: a ConfigError if unreadable, else a DimensionError."""
    try:
        with warnings.catch_warnings():
            # an empty body is an empty array, refused by its row count
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except ValueError as exc:
        raise DimensionError(f"{path}: {exc}") from None
    n_rows = len(next(iter(coordinates.values())))
    if data.shape[0] != n_rows:
        raise DimensionError(f"{path}: {data.shape[0]} rows, "
                             f"grid expects {n_rows}")
    if data.shape[1] != n_cols:
        raise DimensionError(f"{path}: {data.shape[1]} columns, "
                             f"expected {n_cols}")
    for found, (name, expected) in zip(data.T, coordinates.items()):
        if not np.allclose(found, expected, rtol=1e-12, atol=1e-12):
            raise DimensionError(
                f"{path}: {name} coordinates do not match grid")
    return data


def save_coefficient(path, nodes, values):
    """Coefficient field as `x,value` rows."""
    save_table(path, "x,value", (nodes, values))


def load_coefficient(path, nodes):
    """Read a coefficient CSV and check it matches the grid nodes."""
    return _read_table(path, 2, node=nodes)[:, 1].copy()


def _save_rows(path, nodes, times, values, name):
    """Nodal field as `x,t,<name>` rows, x-major."""
    save_table(path, f"x,t,{name}", (np.repeat(nodes, len(times)),
                                     np.tile(times, len(nodes)),
                                     np.ravel(values)))


def save_load(path, load):
    """Load field as `x,t,value` rows, x-major."""
    _save_rows(path, load.grid.nodes, load.grid.times, load.values, "value")


def load_load(path, grid):
    """Read an x-major `x,t,value` CSV and check it matches the grid."""
    data = _read_table(path, 3, node=np.repeat(grid.nodes, grid.n_times),
                       time=np.tile(grid.times, grid.n_nodes))
    return LoadField(data[:, 2].reshape(grid.n_nodes, grid.n_times), grid)


def save_field(path, nodes, times, values):
    """Generic full-field dump as `x,t,u` rows."""
    _save_rows(path, nodes, times, values, "u")


def save_measurements(path, times, series):
    save_table(path, "t,theta0,thetaL", (times, series.theta0, series.thetaL))


def load_measurements(path, grid):
    """Read a `t,theta0,thetaL` CSV; non-finite slopes are a numeric
    failure (DivergenceError), a wrong row count or time column a
    DimensionError."""
    data = _read_table(path, 3, time=grid.times)
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
    save_table(path, "iter,J,grad_norm,discrepancy",
               (np.arange(len(state.J_history)), state.J_history,
                state.grad_history, state.discrepancy_history))


def save_check_report(path, rows):
    """Inequality report rows as `check,scenario,lhs,rhs,pass`."""
    _write_rows(path, "check,scenario,lhs,rhs,pass", "%s,%s,%.17g,%.17g,%s\n",
                ((name, scenario, lhs, rhs, "true" if ok else "false")
                 for name, scenario, lhs, rhs, ok in rows))


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
