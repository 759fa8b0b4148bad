"""The per-layer tracer of the benchmark resolves the names it wraps with ``getattr``.

A function moved out of ``gsrep`` while ``benchmark/layertrace.py`` still
lists it makes ``benchmark/run.py --trace 1`` raise ``AttributeError`` at
install time, so every ``TRACED`` entry must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "benchmark" / "layertrace.py"


def test_every_traced_name_resolves_in_gsrep():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.TRACED
    for modname, path, label in layertrace.TRACED:
        owner = importlib.import_module(modname)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), label
