"""Every module under ``src/repro`` is reached from a run path.

The run roots are the CLI (``repro.__main__``, ``repro.cli`` and every
experiment module its ``EXPERIMENTS`` table imports by name),
``repro.core.mega``, and every ``.py`` file under ``bench/``,
``benchmarks/`` and ``examples/``.  An edge is an ``import`` statement
anywhere in a reached module, except one guarded by ``TYPE_CHECKING``.
``from pkg import Name`` resolves to the module that defines ``Name``: a
re-export in a package ``__init__`` is not a use of that ``__init__``,
but a name the ``__init__`` defines itself (``repro.obs.Observability``)
is, and then the imports that definition uses are followed too.

``repro.testing`` is the one allowlisted package: the differential
oracle lives there and the tests import it.

One grain finer, every function, method and class outside
``repro.testing`` must be named somewhere in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` outside its own body.  The match is by
name, not by call site, so it is a floor: a definition no run path names
fails it, one that shares its name with a live one does not.
"""

from __future__ import annotations

import ast
import collections
import functools
import pathlib

from repro.cli import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOT_DIRS = ("bench", "benchmarks", "examples")
ALLOWLIST = ("repro.testing",)


def _module_files() -> dict[str, pathlib.Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(nodes, package: str, nested: bool):
    """``(target module, imported name or None, bound name)`` per import.

    *nested* also walks function and class bodies (lazy imports)."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield alias.name, None, bound
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.If) and _is_type_checking(node):
            yield from _imports(node.orelse, package, nested)
        elif nested or not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield from _imports(ast.iter_child_nodes(node), package, nested)


@functools.lru_cache(maxsize=None)
def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names_defined_by(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _own_definitions(tree: ast.Module) -> list[ast.stmt]:
    """Top-level statements that define a name other than a dunder
    (``__all__``, ``__version__``, a lazy-import ``__getattr__``)."""
    return [
        node
        for node in tree.body
        if any(not _is_dunder(n) for n in _names_defined_by(node))
    ]


def _defined_names(tree: ast.Module) -> set[str]:
    return {n for node in _own_definitions(tree) for n in _names_defined_by(node)}


def _resolve(module: str, name: str) -> str | None:
    """The ``src/repro`` module that defines ``module.name``."""
    if module not in MODULES:
        return None
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if not _is_package(module):
        return module
    tree = _parse(MODULES[module])
    if name in _defined_names(tree):
        return module
    for target, imported, bound in _imports(tree.body, module, nested=False):
        if bound == name:
            return target if imported is None else _resolve(target, imported)
    return module


def _edges(tree: ast.Module, package: str, init: bool):
    """Modules one file's imports reach.  A package ``__init__`` only
    reaches what its own definitions use."""
    if init:
        used = {
            n.id
            for d in _own_definitions(tree)
            for n in ast.walk(d)
            if isinstance(n, ast.Name)
        }
        imports = [
            imp
            for imp in _imports(tree.body, package, nested=False)
            if imp[2] in used
        ]
    else:
        imports = _imports(tree.body, package, nested=True)
    for target, imported, _ in imports:
        dest = target if imported is None else _resolve(target, imported)
        if dest in MODULES:
            yield dest


def reached_modules() -> set[str]:
    stack = [
        dest
        for d in ROOT_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
        for dest in _edges(_parse(path), "", init=False)
    ]
    stack += ["repro.__main__", "repro.cli", "repro.core.mega"]
    stack += [f"repro.experiments.{module}" for module, *_ in EXPERIMENTS.values()]
    seen: set[str] = set()
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        init = _is_package(name)
        package = name if init else name.rpartition(".")[0]
        stack.extend(_edges(_parse(MODULES[name]), package, init))
    return seen


def test_every_module_is_reached_from_a_run_path():
    required = {
        name
        for name, path in MODULES.items()
        if not name.startswith(ALLOWLIST)
        and (not _is_package(name) or _own_definitions(_parse(path)))
    }
    unreached = sorted(required - reached_modules())
    assert not unreached, (
        "modules no run path imports (delete them, or wire them into a "
        f"run path): {unreached}"
    )


def _references(tree: ast.AST):
    """Names one tree uses: loads (``name`` and ``x.name``), the names an
    import binds, and string constants that are identifiers
    (``getattr(obj, "name")``, the ``EXPERIMENTS`` table)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value


def test_every_definition_is_referenced():
    """Every function, method and class outside ``repro.testing`` is used
    by name somewhere in ``src/``, ``bench/``, ``benchmarks/`` or
    ``examples/``, outside its own body.  A name only tests use is code
    no run path calls."""
    paths = [p for d in ("src", *ROOT_DIRS) for p in sorted((ROOT / d).rglob("*.py"))]
    uses = collections.Counter(n for p in paths for n in _references(_parse(p)))
    unused = []
    for module, path in MODULES.items():
        if module.startswith(ALLOWLIST):
            continue
        for node in ast.walk(_parse(path)):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or _is_dunder(node.name):
                continue
            own = sum(n == node.name for n in _references(node))
            if uses[node.name] == own:
                unused.append(f"{module}:{node.lineno}:{node.name}")
    assert not unused, (
        "definitions nothing outside tests/ uses (delete them, or call them "
        f"from a run path): {unused}"
    )
