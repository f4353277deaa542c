"""Static hygiene of the library modules: no unused module-level import
(in the tests and demos too), every name in ``__all__`` defined in the
module, the package re-exporting exactly the modules' ``__all__``, every
private module-level function or class read somewhere in the library,
every exported name read outside the tests, the README's config table
naming exactly the keys of ``cli.CONFIG``, the README's command block and
``cli``'s docstring naming exactly ``cli.COMMANDS``, no ``assert`` statement
in the library, and every library error reaching the user as a typed exit."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from memflow import cli, kernels

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "memflow"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(f"{d}/{p.name}" for d in ("tests", "demos") for p in (ROOT / d).glob("*.py"))


def _imported(tree):
    """Names bound by the module-level imports (``from __future__`` aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _unused_imports(tree):
    """Module-level imports that no name in the module reads nor ``__all__``
    exports."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(_imported(tree) - used - set(_exported(tree)))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defined(tree):
    names = _imported(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_used_and_exports_defined(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _unused_imports(tree) == []
    assert sorted(set(_exported(tree)) - _defined(tree)) == []


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_imports_used(name):
    assert _unused_imports(ast.parse((ROOT / name).read_text(), filename=name)) == []


def test_package_reexports_exactly_the_module_exports():
    tree = ast.parse((SRC / "__init__.py").read_text(), filename="__init__.py")
    reexported = {(node.module, a.asname or a.name) for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}
    public = {(name[:-3], n) for name in MODULES
              for n in _exported(ast.parse((SRC / name).read_text(), filename=name))}
    assert sorted(reexported - public) == []
    assert sorted(public - reexported) == []


def _read_names(node):
    """Identifiers that a statement reads: names, attributes and imports."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_private_helpers_have_a_reader():
    """Each module-level ``_name`` function or class in the library is read
    by some other top-level statement of the library: a helper whose last
    caller went is deleted with it."""
    helpers, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=path.name).body:
            own = getattr(node, "name", None)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and own.startswith("_") and not own.startswith("__")):
                helpers.append((path.name, own))
            reads.append((path.name, own, _read_names(node)))
    assert helpers
    stranded = [(mod, name) for mod, name in helpers
                if not any(name in names for m, own, names in reads
                           if (m, own) != (mod, name))]
    assert stranded == []


def test_exports_have_a_reader_outside_the_tests():
    """Each name in a module's ``__all__`` is read by another top-level
    statement of the library (the package's re-exports aside), or by the
    demos or the benchmark: a public name that only the tests read belongs
    in the tests."""
    reads = [(path.name, getattr(node, "name", None), _read_names(node))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for node in ast.parse(path.read_text(), filename=path.name).body]
    outside = set()
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        outside |= _read_names(ast.parse(path.read_text(), filename=path.name))
    unread = [(mod, name) for mod in MODULES
              for name in _exported(ast.parse((SRC / mod).read_text(), filename=mod))
              if name not in outside
              and not any(name in names for m, own, names in reads if (m, own) != (mod, name))]
    assert unread == []


def test_readme_config_table_names_the_config_keys():
    readme = (ROOT / "README.md").read_text()
    documented = re.findall(r"^\| `([\w.]+)` \|", readme, flags=re.MULTILINE)
    keys = [f"{name}.{key}" if isinstance(spec, dict) else name
            for name, spec in cli.CONFIG.items()
            for key in (spec if isinstance(spec, dict) else [None])]
    assert len(documented) == len(set(documented))
    assert sorted(documented) == sorted(keys)


def test_command_lists_name_the_commands():
    """README's command block and ``cli``'s module docstring list exactly
    ``cli.COMMANDS``, in its order."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```", readme,
                      flags=re.MULTILINE | re.DOTALL).group(1)
    assert [line.split()[0] for line in block.splitlines()] == list(cli.COMMANDS)
    listed = re.search(r"Commands: ([^.]*)\.", cli.__doc__).group(1)
    assert re.split(r",\s+", listed) == list(cli.COMMANDS)


@pytest.mark.parametrize("name", MODULES + ["__init__.py"])
def test_library_holds_no_assert(name):
    """``python -O`` strips asserts, so a library invariant raises a typed
    error instead."""
    tree = ast.parse((SRC / name).read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


def test_every_library_error_exits_typed():
    """Each exception class of the library ends a command in exit 1 with a
    ``failed`` manifest (``cli._RUN_ERRORS``) or in exit 2 as a
    ``cli.ConfigError``: a typed error that is neither ends in a traceback.
    The errors that become a ConfigError are listed with an input that
    raises one."""
    as_config_error = {kernels.KernelParseError: lambda: cli.parse_kernel_checked("exp(")}
    errors = {cls for name in MODULES
              for cls in vars(importlib.import_module(f"memflow.{name[:-3]}")).values()
              if inspect.isclass(cls) and issubclass(cls, BaseException)
              and cls.__module__ == f"memflow.{name[:-3]}"}
    assert cli.ConfigError in errors and len(errors) > len(cli._RUN_ERRORS)
    untyped = [cls.__name__ for cls in errors - {cli.ConfigError}
               if not issubclass(cls, cli._RUN_ERRORS) and cls not in as_config_error]
    assert untyped == []
    for raise_it in as_config_error.values():
        with pytest.raises(cli.ConfigError):
            raise_it()
