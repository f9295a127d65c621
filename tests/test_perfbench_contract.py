"""The benchmark harness under perfbench/ times qmci functions by name and
reads two qae internals; a rename in qmci must not silently break it."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_functions_exist():
    traced = _traced()
    assert traced
    for module, name in traced:
        mod = importlib.import_module(f"qmci.{module}")
        assert callable(getattr(mod, name, None)), f"qmci.{module}.{name}"


def test_layer_metrics_inputs_exist():
    from qmci import qae

    assert callable(qae._lcu_shot_plan)
    assert isinstance(qae.DEFAULT_POSTERIOR_GRID, int)
