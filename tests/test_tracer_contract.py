"""The benchmark's tracer patches names inside the package; each must exist.

`bench/tracer.py` installs its wrappers with `setattr` at the names listed in
its `TARGETS`, so a rename or deletion in `src/` would otherwise only show up
as a failed benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ecfactor_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    for module, owner, attr, _ in load_tracer().TARGETS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        assert callable(getattr(target, attr, None)), (module, owner, attr)
