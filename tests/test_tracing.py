"""The benchmark tracer's contract with the package: loaded as it is from
perfbench/tracing.py, its wraps must see every supremum search that the
analysis layer runs, so its per-layer counters do not silently read 0."""

import importlib.util
from pathlib import Path

from ballmax import maximal
from ballmax.analysis import default_t_grid, radial_scan, weak_constant_estimate
from ballmax.profiles import OperatorConfig, random_profile

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_searches_of_a_cell_and_a_scan():
    search = maximal._supremum_batch
    tracer = _load_tracing().Tracer()
    g, cfg = random_profile(20240817, 6, 2), OperatorConfig(2, 0.5)
    tracer.install()
    try:
        weak_constant_estimate(g, cfg, default_t_grid(g, 4))
        n = len(tracer.spans)
        radial_scan(g, cfg, [0.5, 1.0, 2.0])
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert "maximal.supremum" in names[:n]
    assert "maximal.supremum" in names[n:]
    assert maximal._supremum_batch is search
