"""The benchmark tracer wraps fieldtomo functions by name from outside the
package; a rename or a dropped parameter would break every traced run."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Parameters the tracer's work counters bind by name.
BOUND_PARAMETERS = {
    "spectral.dft": "signal",
    "measurement.sample_trajectory": "plan",
    "measurement.write_trajectory_csv": "path",
    "spectral.write_spectrum_csv": "path",
}


@pytest.fixture(scope="module")
def tracer():
    """The tracer module, executed from its source (no bytecode cache written)."""
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def _target(name: str):
    module_name, fn_name = name.split(".")
    module = importlib.import_module(f"fieldtomo.{module_name}")
    return getattr(module, fn_name, None)


def test_every_tracer_target_is_a_fieldtomo_callable(tracer):
    missing = [name for name in tracer.TARGETS if not callable(_target(name))]
    assert not missing


def test_counter_parameters_still_exist(tracer):
    assert set(BOUND_PARAMETERS) <= set(tracer.TARGETS)
    for name, param in BOUND_PARAMETERS.items():
        assert param in inspect.signature(_target(name)).parameters, name
    for name in tracer.TARGETS:
        tracer._counters(name, _target(name))  # binds its parameters eagerly
