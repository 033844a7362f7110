import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_layers():
    """``LAYERS`` of the benchmark's tracer, loaded from its file and
    only read: nothing is wrapped."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves_in_ditop():
    # the traced benchmark pass counts a name it cannot find as missing;
    # a renamed or removed function should fail here first
    missing = []
    for module, function, *_ in _traced_layers():
        owner = importlib.import_module(f"ditop.{module}")
        for attr in function.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{function}")
    assert missing == []
