"""Every ``repro`` module is reached from an entry point, or is named here.

The walk starts where users come in: ``python -m repro`` (``repro.cli``),
the top-level ``repro`` exports, the experiment registry
(``repro.experiments``, whose ``ALL_EXPERIMENTS`` imports every runner) and
the ``repro`` imports of ``bench/**/*.py`` and ``examples/*.py``.  It follows
every import statement, function-level ones included.  A name imported from
a package ``__init__`` resolves to the module that defines it, so a
re-export alone reaches nothing: a module only tests import is dead code.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules that back a recorded result but that no entry point calls yet:
#: ``steering.pecan`` (EXPERIMENTS.md's PECAN ablation), ``dns.resolution``
#: (the Fig. 10 DNS-distribution row) and ``measurement.ping`` (DESIGN.md's
#: min-of-7 ping substitution).  ROADMAP item 1's claims registry is to give
#: them a caller; any other unreached module is deleted, not added here.
KNOWN_UNREACHED = {
    "repro.dns.resolution",
    "repro.measurement.ping",
    "repro.steering.pecan",
}

ENTRY_MODULES = ("repro", "repro.__main__", "repro.cli", "repro.experiments")


def _module_files() -> Dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _absolute(node: ast.ImportFrom, module: str) -> str:
    if not node.level:
        return node.module or ""
    package = module if module in PACKAGES else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _imports(tree: ast.Module, module: str) -> Iterator[Tuple[str, Optional[List[str]]]]:
    """``(module, names)`` for every import; ``names`` is None for ``import X``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            yield _absolute(node, module), [alias.name for alias in node.names]


def _reexports(package: str) -> Dict[str, Tuple[str, str]]:
    """Names a package binds by a top-level ``from X import`` -> (X, name)."""
    bound = {}
    for node in _parse(MODULES[package]).body:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(node, package)
            for alias in node.names:
                bound[alias.asname or alias.name] = (source, alias.name)
    return bound


def _targets(base: str, names: Optional[List[str]]) -> Set[str]:
    """The modules an import of ``names`` from ``base`` reaches."""
    if base not in MODULES:
        return set()
    if names is None or base not in PACKAGES:
        return {base}
    bound = _reexports(base)
    reached: Set[str] = set()
    for name in names:
        if f"{base}.{name}" in MODULES:
            reached.add(f"{base}.{name}")
        elif name in bound:
            source, original = bound[name]
            reached |= _targets(source, [original])
        else:  # defined in the package itself (or ``*``)
            reached.add(base)
    return reached


def _outside_roots() -> Set[str]:
    roots: Set[str] = set()
    scripts = list((ROOT / "bench").rglob("*.py")) + list((ROOT / "examples").glob("*.py"))
    for path in scripts:
        for base, names in _imports(_parse(path), "__script__"):
            roots |= _targets(base, names)
    return roots


def reached_modules() -> Set[str]:
    stack = list(ENTRY_MODULES) + sorted(_outside_roots())
    reached: Set[str] = set()
    while stack:
        module = stack.pop()
        if module in reached:
            continue
        reached.add(module)
        for base, names in _imports(_parse(MODULES[module]), module):
            stack.extend(_targets(base, names) - reached)
    return reached


def test_only_known_modules_are_unreached():
    unreached = set(MODULES) - PACKAGES - reached_modules()
    assert unreached == KNOWN_UNREACHED

