"""The benchmark tracer's patch list against the package it wraps.

`perfbench/tracing.py` replaces names where seqfuse's callers look them
up; a name that was renamed or deleted would only fail once a traced
benchmark run installs the wrappers. This loads the module by path and
resolves each entry the way `Tracer.patched` does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for module_name, path, _, _ in _load_tracing().PATCHES:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []
