import numpy as np
import pytest

from beamload.cli import main
from beamload.errors import ConfigError, DimensionError
from beamload.io import (config_hash, load_coefficient, load_load,
                         load_measurements, parse_config, save_coefficient,
                         save_load, save_measurements, save_sidecar,
                         load_sidecar)
from beamload.model import LoadField, MeasurementSeries, SpaceTimeGrid


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
