"""The public names of the library, the names the benchmark wraps and the
README's library example all exist and work."""

import ast
import importlib
import pkgutil
import re
import runpy
import shlex
from functools import reduce
from pathlib import Path

import pytest

import seifert_actions
from helpers import run_python
from seifert_actions import cli, seifert
from seifert_actions.rational import InputError

ROOT = Path(__file__).resolve().parents[1]
SPANS_PY = ROOT / "perfbench" / "spans.py"


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


def test_every_package_export_resolves_and_is_listed():
    modules = library_modules().values()
    listed = dir(seifert_actions)
    for name in seifert_actions.__all__:
        value = getattr(seifert_actions, name)
        assert any(getattr(module, name, None) is value for module in modules), name
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        seifert_actions.no_such_name


def test_package_exports_read_the_defining_module_on_each_use(monkeypatch):
    # a wrapper installed on a module, as the benchmark's spans do, is seen
    # through the package, and so is its removal
    original = seifert.euler_number
    monkeypatch.setattr(seifert, "euler_number", len)
    assert seifert_actions.euler_number is len
    monkeypatch.undo()
    assert seifert_actions.euler_number is original


def test_star_import_in_a_fresh_interpreter():
    out = run_python(
        "import sys\n"
        "import seifert_actions\n"
        "print(sorted(m for m in sys.modules if m.startswith('seifert_actions')))\n"
        "names = {}\n"
        "exec('from seifert_actions import *', names)\n"
        "print(sorted(set(names) - {'__builtins__'}) == sorted(seifert_actions.__all__))\n"
    )
    assert out == "['seifert_actions']\nTrue\n"


def test_submodules_resolve_as_package_attributes():
    # a module read through the package is loaded then, and only then
    out = run_python(
        "import sys, seifert_actions as lib\n"
        "print('seifert_actions.torus' in sys.modules, lib.torus.__name__, "
        "lib.torus is sys.modules['seifert_actions.torus'])\n"
    )
    assert out == "False seifert_actions.torus True\n"
    assert set(seifert_actions._MODULES) <= set(dir(seifert_actions))


def test_no_function_imports_a_library_module():
    # late loading is the package's job: code reads `seifert_actions.<module>`
    for path in sorted(Path(seifert_actions.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):  # a relative import is local
                    names = ["seifert_actions"] if node.level else [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                assert all(name.partition(".")[0] != "seifert_actions" for name in names), (
                    f"{path.name}:{node.lineno}: {func.name} imports a library module"
                )


def test_no_library_module_imports_pathlib_or_typing():
    # files are named by str or os.PathLike paths; `os` and `open` do the work
    for path in sorted(Path(seifert_actions.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not {name.partition(".")[0] for name in names} & {"pathlib", "typing"}, (
                f"{path.name}:{node.lineno} imports pathlib or typing"
            )


def test_every_library_error_is_an_input_error():
    errors = [
        value
        for module in library_modules().values()
        for name in getattr(module, "__all__", ())
        if isinstance(value := getattr(module, name), type) and issubclass(value, Exception)
    ]
    assert len(errors) == 9  # InputError and the 8 classes derived from it
    assert all(issubclass(error, InputError) for error in errors)
    assert issubclass(InputError, ValueError)


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


def test_readme_command_list_names_every_verb():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```$", readme, re.M | re.S)[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines()]
    verbs = {verb: arguments for verb, _, _, arguments in cli.VERBS}
    assert sorted(argv[0] for argv in examples) == sorted(verbs)
    for argv in examples:
        if "action_file" not in verbs[argv[0]]:
            assert cli.main(argv) == 0, argv


def test_readme_python_examples_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
