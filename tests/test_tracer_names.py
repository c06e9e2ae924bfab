"""The benchmark's tracer wraps names in coronacolor's modules by bare lookup,
so a name it lists that the package no longer has breaks every traced run.
The tracer is loaded from its file, as it is, to read that list."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    missing = [
        f"coronacolor.{modname}.{attr}"
        for modname, attr, _, _ in tracer.PATCHES
        if not callable(getattr(importlib.import_module(f"coronacolor.{modname}"), attr, None))
    ]
    assert missing == []
