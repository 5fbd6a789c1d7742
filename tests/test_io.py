from types import SimpleNamespace

import numpy as np
import pytest

from beamload import cli, io
from beamload.cli import main
from beamload.errors import ConfigError, DimensionError
from beamload.io import (config_hash, load_coefficient, load_load,
                         load_measurements, parse_config, save_check_report,
                         save_coefficient, save_field, save_iteration_log,
                         save_load, save_measurements, save_sidecar,
                         save_table, load_sidecar)
from beamload.model import (CheckRow, LoadField, MeasurementSeries,
                            SpaceTimeGrid)


@pytest.fixture
def grid():
    return SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=4,
                         n_steps=4)


def test_coefficient_round_trip(tmp_path, grid):
    values = np.array([1.0, 2.5, np.pi, 1e-7, 123456.789])
    path = tmp_path / "r.csv"
    save_coefficient(path, grid.nodes, values)
    again = load_coefficient(path, grid.nodes)
    assert np.array_equal(again, values)   # 17 digits round-trips exactly
    with pytest.raises(DimensionError):
        load_coefficient(path, grid.nodes[:-1])


def test_load_round_trip(tmp_path, grid):
    rng = np.random.default_rng(0)
    load = LoadField(rng.normal(size=(grid.n_nodes, grid.n_times)), grid)
    path = tmp_path / "F.csv"
    save_load(path, load)
    again = load_load(path, grid)
    assert np.array_equal(again.values, load.values)
    # same row count, but another final time or length
    for other in (SpaceTimeGrid(length=1.0, final_time=2.0, n_elements=4,
                                n_steps=4),
                  SpaceTimeGrid(length=3.0, final_time=1.0, n_elements=4,
                                n_steps=4)):
        with pytest.raises(DimensionError, match="coordinates"):
            load_load(path, other)


def test_measurements_round_trip(tmp_path, grid):
    t = grid.times
    series = MeasurementSeries(theta0=np.sin(t), thetaL=np.cos(t))
    path = tmp_path / "m.csv"
    save_measurements(path, t, series)
    again = load_measurements(path, grid)
    assert np.array_equal(again.theta0, series.theta0)
    assert np.array_equal(again.thetaL, series.thetaL)
    bad_grid = SpaceTimeGrid(length=1.0, final_time=1.0, n_elements=4,
                             n_steps=8)
    with pytest.raises(DimensionError):
        load_measurements(path, bad_grid)
    # same row count, but another final time
    longer = SpaceTimeGrid(length=1.0, final_time=2.0, n_elements=4,
                           n_steps=4)
    with pytest.raises(DimensionError, match="time coordinates"):
        load_measurements(path, longer)


def test_table_of_numbers_numpy_refuses_is_refused(tmp_path, grid):
    """`1_0` is a number to `float` but not to `np.loadtxt`, so the
    refusal's line scan skips the comment and the blank line, finds no
    bad line and names the file as not a table."""
    path = tmp_path / "c.csv"
    path.write_text("x,v\n# c\n\n1_0,2\n")
    with pytest.raises(DimensionError,
                       match=r"c\.csv: not a table of 2 numbers per line"):
        load_coefficient(path, grid.nodes)


def test_sidecar_round_trip(tmp_path):
    path = tmp_path / "meta.txt"
    save_sidecar(path, {"seed": 7, "mode": "twin"})
    entries = load_sidecar(path)
    assert entries == {"seed": "7", "mode": "twin"}


def test_parse_config_comments_and_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# header\ngrid.n_elements = 8  # inline\n\n"
                    "coeff.r = 1.5\n")
    cfg = parse_config(path)
    assert cfg == {"grid.n_elements": "8", "coeff.r": "1.5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.cfg")


def random_config(rng):
    """A seeded mix of blank lines, comments and `key = value` pairs with
    repeated keys, and in half the cases one line without `=`.  Returns
    the text and the entries it should parse to, or None when a line
    lacks `=`."""
    keys = ("grid.n_elements", "coeff.r", "scenario.kind", "x")
    words = ("8", "1.5", "zero", "a = b", "", "moving_gaussian")
    lines, entries = [], {}
    for _ in range(int(rng.integers(1, 12))):
        kind = int(rng.integers(3))
        pad = " \t"[int(rng.integers(2))] * int(rng.integers(3))
        key, value = rng.choice(keys), rng.choice(words)
        if kind == 0:
            lines.append(pad)
        elif kind == 1:
            lines.append(f"{pad}# {key} = {value}")
        else:
            comment = " # note = 1" if rng.integers(2) else ""
            lines.append(f"{pad}{key}{pad}={pad}{value}{comment}")
            entries[key] = value
    if rng.integers(2):
        bad = (f"{rng.choice(keys)} {rng.choice(words[:3])}",
               f" {rng.choice(keys)} # = 1")[int(rng.integers(2))]
        lines.insert(int(rng.integers(len(lines) + 1)), bad)
        entries = None
    return "\n".join(lines) + "\n", entries


@pytest.mark.parametrize("seed", range(24))
def test_parse_config_fuzz(tmp_path, capsys, seed):
    """Every input parses (the last of repeated keys wins) or raises
    ConfigError; through the CLI a malformed config exits 2 with one
    stderr line."""
    text, entries = random_config(np.random.default_rng(seed))
    path = tmp_path / "run.cfg"
    path.write_text(text)
    if entries is not None:
        assert parse_config(path) == entries
        return
    with pytest.raises(ConfigError):
        parse_config(path)
    assert main(["forward", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("config error:") and "Traceback" not in err


def test_config_hash_tracks_content(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("x = 1\n")
    b.write_text("x = 1\n")
    assert config_hash(a) == config_hash(b)
    b.write_text("x = 2\n")
    assert config_hash(a) != config_hash(b)


# The row loops that wrote every CSV before `save_table`, kept as the
# reference of its bytes.
def _fmt(value):
    return "%.17g" % value


def reference_save_coefficient(path, nodes, values):
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x, v in zip(nodes, values):
            fh.write(f"{_fmt(x)},{_fmt(v)}\n")


def reference_save_rows(path, nodes, times, values, name):
    with open(path, "w") as fh:
        fh.write(f"x,t,{name}\n")
        for i, x in enumerate(nodes):
            for j, t in enumerate(times):
                fh.write(f"{_fmt(x)},{_fmt(t)},{_fmt(values[i, j])}\n")


def reference_save_measurements(path, times, series):
    with open(path, "w") as fh:
        fh.write("t,theta0,thetaL\n")
        for t, a, b in zip(times, series.theta0, series.thetaL):
            fh.write(f"{_fmt(t)},{_fmt(a)},{_fmt(b)}\n")


def reference_save_iteration_log(path, state):
    with open(path, "w") as fh:
        fh.write("iter,J,grad_norm,discrepancy\n")
        for i, (J, gn, d) in enumerate(zip(state.J_history,
                                           state.grad_history,
                                           state.discrepancy_history)):
            fh.write(f"{i},{_fmt(J)},{_fmt(gn)},{_fmt(d)}\n")


def reference_save_check_report(path, rows):
    with open(path, "w") as fh:
        fh.write("check,scenario,lhs,rhs,pass\n")
        for r in rows:
            fh.write(f"{r.check},{r.scenario},{_fmt(r.lhs)},{_fmt(r.rhs)},"
                     f"{'true' if r.ok else 'false'}\n")


def reference_energy_residual(path, times, res):
    with open(path, "w") as fh:
        fh.write("t,residual\n")
        for t, r in zip(times, res):
            fh.write(f"{t:.17g},{r:.17g}\n")


def reference_parameters(path, params):
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for i, p in enumerate(params):
            fh.write(f"{i},{p:.17g}\n")


SPECIAL = (-0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308)


def special_values(rng, *shape):
    """Normals across 600 decades with every SPECIAL value at random
    places."""
    values = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, shape)
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, len(SPECIAL), replace=False)] = SPECIAL
    return values


def same_bytes(a, b):
    return a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("seed", range(3))
def test_writers_match_the_row_loops(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n_nodes, n_times = 9, 13
    nodes, times = special_values(rng, n_nodes), special_values(rng, n_times)
    values = special_values(rng, n_nodes, n_times)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"

    save_coefficient(new, nodes, values[:, 0])
    reference_save_coefficient(ref, nodes, values[:, 0])
    assert same_bytes(new, ref)

    grid = SimpleNamespace(nodes=nodes, times=times)
    save_load(new, SimpleNamespace(grid=grid, values=values))
    reference_save_rows(ref, nodes, times, values, "value")
    assert same_bytes(new, ref)
    save_field(new, nodes, times, values)
    reference_save_rows(ref, nodes, times, values, "u")
    assert same_bytes(new, ref)

    series = SimpleNamespace(theta0=values[0], thetaL=values[1])
    save_measurements(new, times, series)
    reference_save_measurements(ref, times, series)
    assert same_bytes(new, ref)

    state = SimpleNamespace(J_history=list(values[2]),
                            grad_history=list(values[3]),
                            discrepancy_history=list(values[4]))
    save_iteration_log(new, state)
    reference_save_iteration_log(ref, state)
    assert same_bytes(new, ref)

    rows = [CheckRow(f"check_{i}", f"s{i:02d}", lhs, rhs,
                     rng.integers(2) == 1)
            for i, (lhs, rhs) in enumerate(zip(values[5], values[6]))]
    save_check_report(new, rows)
    reference_save_check_report(ref, rows)
    assert same_bytes(new, ref)


@pytest.mark.parametrize("n_rows", (0, 1, 4, 5, 117))
def test_table_blocks_join_into_one_table(tmp_path, monkeypatch, n_rows):
    """Rows stacked 4 at a time, across full, partial and no blocks, write
    the row loop's bytes."""
    monkeypatch.setattr(io, "_BLOCK", 4)
    rng = np.random.default_rng(n_rows)
    times = special_values(rng, n_rows + 8)[:n_rows]
    series = SimpleNamespace(theta0=rng.normal(size=n_rows),
                             thetaL=rng.normal(size=n_rows))
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    save_measurements(new, times, series)
    reference_save_measurements(ref, times, series)
    assert same_bytes(new, ref)


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 7), (17, 29)])
def test_field_writers_match_save_table(tmp_path, shape):
    """A field written node by node from its pre-formatted x and t
    strings has the bytes of `save_table` on its repeated x, tiled t and
    raveled value columns."""
    rng = np.random.default_rng(sum(shape))
    n_nodes, n_times = shape
    nodes = np.sort(rng.uniform(0.0, 3.0, n_nodes))
    times = np.sort(rng.uniform(0.0, 2.0, n_times))
    values = rng.normal(size=shape) * 10.0 ** rng.uniform(-20, 20, shape)
    values.flat[0] = -0.0
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    save_table(ref, "x,t,u", (np.repeat(nodes, n_times),
                              np.tile(times, n_nodes), values.ravel()))
    save_field(new, nodes, times, values)
    assert same_bytes(new, ref)
    grid = SimpleNamespace(nodes=nodes, times=times)
    save_load(new, SimpleNamespace(grid=grid, values=values))
    assert new.read_bytes() == ref.read_bytes().replace(b"x,t,u\n",
                                                        b"x,t,value\n", 1)


BASE = """
grid.n_elements = 4
grid.n_steps = 8
scenario.kind = zero
"""


def test_cli_tables_match_the_row_loops(tmp_path, monkeypatch):
    """`energy_residual.csv` and `parameters.csv`, with special values
    put in the rows the commands write."""
    rng = np.random.default_rng(7)
    grid = SpaceTimeGrid(1.0, 1.0, 4, 8)
    res = special_values(rng, grid.n_times)
    params = special_values(rng, 11)
    monkeypatch.setattr(cli, "energy_residual", lambda *args: res)
    monkeypatch.setattr(cli, "reconstruct_parametric", lambda *args: (
        SimpleNamespace(family=SimpleNamespace(parameters=params,
                                               field=LoadField.zero),
                        J=0.0, converged=True, identifiable=True,
                        n_evaluations=0, kernel_rank=(5, 3))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE)
    assert main(["forward", "--config", str(cfg),
                 "--out", str(tmp_path / "fwd")]) == 0
    reference_energy_residual(tmp_path / "ref.csv", grid.times, res)
    assert same_bytes(tmp_path / "fwd" / "energy_residual.csv",
                      tmp_path / "ref.csv")

    cfg.write_text(BASE + "inversion.mode = parametric\n")
    assert main(["invert", "--config", str(cfg),
                 "--out", str(tmp_path / "inv")]) == 0
    reference_parameters(tmp_path / "ref.csv", params)
    assert same_bytes(tmp_path / "inv" / "parameters.csv",
                      tmp_path / "ref.csv")
