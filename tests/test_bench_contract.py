"""The benchmark tracer wraps fieldtomo functions by name from outside the
package; a rename or a dropped parameter would break every traced run."""

import configparser
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

from fieldtomo import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")

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


@pytest.fixture(scope="module")
def workloads():
    """The workload module, executed from its source (no bytecode cache written)."""
    module = types.ModuleType("bench_workloads")
    sys.modules[module.__name__] = module  # dataclasses look their module up by name
    try:
        exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_workload_ops_name_known_presets_and_keys(workloads):
    for name in workloads.WORKLOADS:
        for op in next(workloads.cycles(name, 0)):
            argv = list(op.argv)
            if "--preset" in argv:
                assert argv[argv.index("--preset") + 1] in cli.PRESETS, (name, argv)
            overlay = configparser.ConfigParser(interpolation=None)
            overlay.read_string(op.overlay)
            for section in overlay.sections():
                assert section in cli.DEFAULTS, (name, section)
                unknown = set(overlay.options(section)) - set(cli.DEFAULTS[section])
                assert not unknown, (name, section, unknown)


def test_traced_ops_count_work_and_raise_nothing(tracer, tmp_path):
    """One reconstruct op and one dce op through `cli.main` under the tracer:
    every counter reads the real return values of its target."""
    trace = tracer.Tracer()
    trace.install()
    try:
        for op_id, (command, preset) in enumerate(
            [("reconstruct", "paper-state1"), ("dce", "paper-dce")]
        ):
            with trace.op(op_id):
                argv = [command, "--preset", preset, "--out-dir", str(tmp_path / command)]
                assert cli.main(argv) == 0
    finally:
        trace.uninstall()
    assert not [span for span in trace.spans if span[-1]]  # no span raised
    assert trace.counts["probe.ideal_bloch_trajectory.points"] > 0
    assert trace.counts["spectral.dft.points"] > 0
    assert {"reconstruct.reconstruct_from_spectra", "dce.condition_on_qubit"} <= {
        span[3] for span in trace.spans
    }
