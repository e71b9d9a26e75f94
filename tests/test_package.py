"""The package's public surface, and the names the benchmark's tracer binds."""

import importlib.util
from pathlib import Path

import camech
from camech import greedy, norm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_export_resolves():
    assert [name for name in camech.__all__ if not hasattr(camech, name)] == []


def test_benchmark_tracer_binds_every_traced_name():
    # the tracer looks each traced function up in its owner's __dict__ and
    # reads the bundle_ratio_power cache; a renamed or uncached name fails here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = greedy.run_greedy
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert greedy.run_greedy is not original
    finally:
        tracer.uninstall()
    assert greedy.run_greedy is original
    assert norm.bundle_ratio_power.cache_info().maxsize > 0
