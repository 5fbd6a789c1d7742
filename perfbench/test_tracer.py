"""Tests of the benchmark's tracer, on shrunken copies of each workload.

    python3 -m pytest perfbench -q

They assert no solve counts, so that algorithm changes in `src/` do not
break them: only that tracing leaves outputs bit-identical, that the
spans nest and account for the operation's wall time, and that the tracer
yields exactly the per-layer metrics BENCHMARK.json names.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, FullfieldMorozov  # noqa: E402

# largest share of an operation's wall time that may fall under no traced
# layer
ROOT_SELF_SHARE = 0.05


def small(name):
    """The workload on a 16x96 grid, with two verify scenarios."""
    workload = WORKLOADS[name]()
    if isinstance(workload, FullfieldMorozov):
        workload.n_elements, workload.n_steps = 16, 96
    else:
        workload.config = {**workload.config, "grid.n_elements": 16,
                           "grid.n_steps": 96, "verify.n_scenarios": 2}
    return workload


def outputs(workload, inp, result):
    """What the operation produced: the inversion's arrays, or every file
    the CLI wrote except the manifest, which names the output directory."""
    if isinstance(workload, FullfieldMorozov):
        return [result.load.values, np.asarray(result.J_history)]
    out, _ = inp
    blobs = []
    for name in sorted(os.listdir(out)):
        if name != "manifest.txt":
            with open(os.path.join(out, name), "rb") as fh:
                blobs.append((name, fh.read()))
    return blobs


def same(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_bit_identical_and_spans_cover_wall(name,
                                                                 tmp_path):
    workload = small(name)
    workload.setup(3, str(tmp_path))

    inp = workload.make_input(0)
    plain = outputs(workload, inp, workload.run(inp))

    inp = workload.make_input(0)
    with Tracer() as tracer:
        start = time.perf_counter()
        result = tracer.run_op(workload.run, inp)
        wall = time.perf_counter() - start
    assert same(plain, outputs(workload, inp, result))

    spans = tracer.spans
    root = spans[0]
    assert root[0] == "op" and all(s[1] >= 0 for s in spans[1:])
    assert all(s[3] is not None for s in spans)
    for name, parent, start, end, _ in spans[1:]:
        assert spans[parent][2] <= start <= end <= spans[parent][3], name
    assert min(tracer.self_times()) >= 0.0
    assert root[3] - root[2] <= wall
    # the traced layers cover the operation: little of its wall time is
    # spent under no traced function
    assert tracer.self_times()[0] < ROOT_SELF_SHARE * wall

    metrics = layer_metrics(tracer)
    assert all(v >= 0 for v in metrics.values())


def test_layer_metrics_are_the_per_layer_metrics_of_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert list(layer_metrics(Tracer())) == names


def test_entering_wraps_every_import_site_and_leaving_restores_them():
    import beamload.io
    import beamload.objective
    import beamload.verify
    before = (beamload.objective.solve_forward, beamload.verify.solve_forward)
    with Tracer() as tracer:
        assert beamload.objective.solve_forward is not before[0]
        assert (beamload.objective.solve_forward
                is beamload.verify.solve_forward)
        # outside an operation a traced call records nothing
        beamload.io.config_hash(__file__)
        assert tracer.spans == []
    assert (beamload.objective.solve_forward,
            beamload.verify.solve_forward) == before
