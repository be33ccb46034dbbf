"""The benchmark's layer metrics hook hscube functions by name; a rename
would silently turn those metrics into None."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    with tracing.Installed(tracing.Tracer()) as tracer:
        pass
    assert tracer.missing == set()
