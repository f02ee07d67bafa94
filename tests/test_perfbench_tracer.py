"""The benchmark's span tracer still finds every layer function it wraps.

``perfbench/tracer.py`` patches the functions named in ``LAYER_TARGETS``
by module path, and each engine's ``run`` through its class ``__dict__``.
A moved, renamed or inherited target breaks traced benchmark runs, so
this test installs the tracer, checks that every target is wrapped, runs
one traced sweep per engine, and checks that ``uninstall`` restores the
originals.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path
from types import ModuleType
from typing import Any

from repro.circuits.arithmetic import ripple_carry_adder
from repro.circuits.sweep_workloads import inject_redundancy
from repro.sweeping import FraigSweeper, StpSweeper

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> ModuleType:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(target: str) -> Any:
    """The raw object a target names: a class ``__dict__`` entry or a module attribute."""
    module_name, path = target.split(":")
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attribute = path.split(".")
        raw = getattr(module, class_name).__dict__[attribute]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(module, path)


def _holders(function: Any) -> list[tuple[ModuleType, str]]:
    """Every ``repro`` module attribute that holds ``function``."""
    return [
        (module, name)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        for name, value in list(vars(module).items())
        if value is function
    ]


def test_install_wraps_every_target_and_uninstall_restores_it() -> None:
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    for module_name in tracer_module.CALLERS:
        importlib.import_module(module_name)
    targets = [target for _name, target in tracer_module.LAYER_TARGETS]
    originals = {target: _current(target) for target in targets}
    holders = {target: _holders(originals[target]) for target in targets if "." not in target.split(":")[1]}

    tracer.install()
    try:
        for target in targets:
            assert getattr(_current(target), "__wrapped__", None) is originals[target], target
        for target, places in holders.items():
            for module, name in places:
                assert getattr(module, name).__wrapped__ is originals[target], (module.__name__, name)

        workload, _report = inject_redundancy(
            ripple_carry_adder(width=5), duplication_fraction=0.3, constant_cones=1, near_miss_count=3, seed=3
        )
        tracer.active = True
        FraigSweeper(workload, num_patterns=16).run()
        StpSweeper(workload, num_patterns=16).run()
        tracer.active = False
        _self_time, _inclusive, calls = tracer.layer_times()
        for key in ("fraig.run", "fraig.sat.prove", "fraig.sweeping.refine_cex", "fraig.sweeping.legal_merge",
                    "stp.run", "stp.sat.prove", "stp.sweeping.constant_prop", "stp.sweeping.order_drivers",
                    "stp.stp.local_tables", "stp.stp.pi_supports", "stp.simulation.sat_guided",
                    "stp.networks.substitute", "stp.networks.cleanup"):
            assert calls.get(key, 0) > 0, key
        assert set(tracer.sweep_stats) == {"fraig", "stp"}
    finally:
        tracer.uninstall()

    for target in targets:
        assert _current(target) is originals[target], target
    for target, places in holders.items():
        for module, name in places:
            assert getattr(module, name) is originals[target], (module.__name__, name)
