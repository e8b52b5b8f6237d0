"""The public names of the library, and the names the benchmark wraps, exist."""

import importlib
import pkgutil
import runpy
from functools import reduce
from pathlib import Path

import seifert_actions

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def library_modules():
    return {
        info.name: importlib.import_module(f"seifert_actions.{info.name}")
        for info in pkgutil.iter_modules(seifert_actions.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    }


def test_every_exported_name_resolves():
    exported = 0
    for name, module in library_modules().items():
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"
            exported += 1
    assert exported > 0


def test_every_benchmark_span_target_exists():
    # run_path compiles the file without writing bytecode next to it
    spans = runpy.run_path(str(SPANS_PY))
    modules = library_modules()
    for span, targets in spans["SPANS"].items():
        for module, attr in targets:
            assert module in modules, f"span {span}: no module {module!r}"
            try:
                reduce(getattr, attr.split("."), modules[module])
            except AttributeError:
                raise AssertionError(f"span {span}: {module}.{attr} does not exist") from None
