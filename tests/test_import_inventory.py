"""The inventory of islands under ``src/repro``: modules and public names no
front door reaches.

Only code that runs all the time can be relied on, so a module is either
reached by import from ``repro.cli`` or listed below with the roadmap item
that owns wiring it in; a public top-level class or function is either
referenced outside its own definition or listed with who uses it.  Adding
an island is a deliberate edit here, not a side effect of leaving code
behind.

The graph is static and follows what a statement names, not what importing
a package executes: ``from repro.pkg import Name`` is an edge to the module
that defines ``Name`` (followed through ``__init__`` re-exports), never to
everything ``repro/pkg/__init__.py`` lists.  Function-level and
``TYPE_CHECKING`` imports count; relative imports are not followed (the
tree has none), so a module reached only by one shows up as an island.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Unreached modules, each with its owner.  This is the to-do list of
#: ROADMAP item 5(a): a module leaves when its item wires it in.
ISLAND_MODULES = {}

#: Where a reference to a public name may live (tests do not count: a name
#: only tests use is test-side API and says so below).
REFERENCE_DIRS = ("src", "bench", "benchmarks", "examples", "tools")

#: Public names nothing in REFERENCE_DIRS mentions outside their definition,
#: each with who uses it.  "tests only" is a candidate for the next deletion.
ISLAND_NAMES = {
    "repro.chaos.scenarios.compose": "test-side API: tests/chaos builds its composed scenarios with it",
    "repro.experiments.snapshot.template_count": "test-side API: how tests see a template hit or miss",
    "repro.experiments.template_store.install_blobs": "test-side API: the picklable pool initializer of the store tests",
    "repro.faults.distributions.Deterministic": "library API: a fixed lifetime, the distribution tests' reference",
    "repro.faults.distributions.LogNormal": "library API: DESIGN.md section 3 lists it; no station config selects it",
    "repro.faults.distributions.Weibull": "library API: the aging lifetime of DESIGN.md section 3; no station config selects it",
    "repro.faults.failure.known_failure_kinds": "test-side API: reads the failure-kind table",
    "repro.faults.failure.register_failure_kind": "library API: the extension point Failure's own error message names",
    "repro.obs.events.set_validation": "test-side API: tests/conftest.py validates every emit with it",
    "repro.obs.events.validation_enabled": "test-side API: reads the switch set_validation sets",
    "repro.obs.sinks.CallbackSink": "test-side API: four test suites watch a trace with it",
}


def parse_package(root, package):
    """``({dotted module name: ast.Module}, {names that are packages})`` for
    every file of ``package`` under ``root``; a package's ``__init__`` goes
    by the package's name."""
    modules, packages = {}, set()
    for path in sorted((root / package).rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        modules[".".join(parts)] = ast.parse(path.read_text(encoding="utf-8"))
    return modules, packages


def _imports(tree):
    """``(module, name or None)`` for every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name


def _defining_module(imports, module, name):
    """The module ``from module import name`` lands in."""
    if f"{module}.{name}" in imports:
        return f"{module}.{name}"
    for source, imported in imports[module]:
        if imported == name and source in imports:
            return _defining_module(imports, source, name)
    return module


def unreached_modules(root, package, entry):
    """Non-``__init__`` modules of ``package`` no import chain from ``entry``
    reaches, sorted."""
    modules, packages = parse_package(root, package)
    imports = {module: list(_imports(tree)) for module, tree in modules.items()}
    seen = set()
    frontier = [entry]
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        seen.add(module)
        for source, name in imports[module]:
            if source in imports:
                frontier.append(
                    source if name is None else _defining_module(imports, source, name)
                )
    return sorted(set(modules) - packages - seen)


def _identifiers(tree, skip_import_names=False):
    """How often each identifier is used in ``tree``: names, attribute
    accesses and imported names (docstrings and ``__all__`` strings are
    neither)."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias) and not skip_import_names:
            counts[node.name.rpartition(".")[2]] += 1
    return counts


def unreferenced_names(root, package, reference_dirs):
    """Public top-level classes and functions of ``package``'s non-``__init__``
    modules that nothing under ``reference_dirs`` names outside the
    definition itself, as sorted dotted names.  An ``__init__`` re-export is
    not a reference; a use elsewhere in the defining module is."""
    used = collections.Counter()
    for top in reference_dirs:
        for path in (root / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used += _identifiers(tree, skip_import_names=path.name == "__init__.py")
    modules, packages = parse_package(root / "src", package)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in modules.items()
        if module not in packages
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and not node.name.startswith("_")
        and used[node.name] <= _identifiers(node)[node.name]
    )


def test_every_module_is_reached_from_the_cli_or_listed():
    assert unreached_modules(ROOT / "src", "repro", "repro.cli") == sorted(ISLAND_MODULES)


def test_every_public_name_is_referenced_or_listed():
    islands = [
        name
        for name in unreferenced_names(ROOT, "repro", REFERENCE_DIRS)
        if name.rpartition(".")[0] not in ISLAND_MODULES
    ]
    assert islands == sorted(ISLAND_NAMES)


def test_core_does_not_import_mercury():
    """``repro.core`` is the portable contribution: no module in it names
    ``repro.mercury`` in an import, at any level."""
    modules, _ = parse_package(ROOT / "src", "repro")
    offenders = sorted(
        module
        for module, tree in modules.items()
        if module.split(".")[:2] == ["repro", "core"]
        for source, _name in _imports(tree)
        if source == "repro.mercury" or source.startswith("repro.mercury.")
    )
    assert offenders == []


def test_an_island_in_a_synthetic_package_is_reported(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.used import helper\nfrom pkg.island import Lonely\n")
    (package / "cli.py").write_text("def main():\n    from pkg import helper\n    return helper()\n")
    (package / "used.py").write_text("def helper():\n    return 1\n\ndef spare():\n    return spare\n")
    (package / "island.py").write_text("class Lonely:\n    pass\n")
    assert unreached_modules(tmp_path / "src", "pkg", "pkg.cli") == ["pkg.island"]
    assert unreferenced_names(tmp_path, "pkg", ("src",)) == [
        "pkg.cli.main",
        "pkg.island.Lonely",
        "pkg.used.spare",
    ]
