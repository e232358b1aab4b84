"""The inventory of islands under ``src/repro``: modules and public names no
front door reaches.

Only code that runs all the time can be relied on, so a module is either
reached by import from ``repro.cli`` or listed below with the roadmap item
that owns wiring it in; a public name (a top-level class, function or
assigned name such as a constant, or a method or property of a top-level
class) is either referenced outside its own definition or listed with the
reason it stays.  Adding an island is a deliberate edit here, not a side
effect of leaving code behind.  The frozen benchmark (``bench/``) counts as
a reference, so a public name only it uses is listed apart, with the
roadmap item or reason that keeps it.

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

#: Unreached modules, each with its owner.  DESIGN.md's inventory rule
#: (section 6) admits only these: a module no front door reaches is wired in
#: or deleted, and ROADMAP item 32 owns any other that appears.
ISLAND_MODULES = {
    "repro.experiments.template_store": "bench-only: experiments.template_store.fetch_ms times its fetch; ROADMAP item 1's benchmark row retires that timing and deletes the module",
}

#: Where a reference to a public name may live (tests do not count: a name
#: only tests use is test-side API and says so below).
REFERENCE_DIRS = ("src", "bench", "benchmarks", "examples", "tools")

#: Public names nothing in REFERENCE_DIRS mentions outside their definition,
#: each with the reason it stays.  Whoever adds an entry writes its reason:
#: "test-side API" is a name a test reads product state through (deleting it
#: would weaken that test or move product code into it); "reference" is an
#: analytic reference or model output a test or document checks against.
ISLAND_NAMES = {
    "repro.analysis.model.SystemModel.probability_failure_free": "reference: the section 5.2 P(failure-free pass) that DESIGN.md's analysis row names",
    "repro.core.policy.RestartPolicy.restarts_in_window": "test-side API: how the engine and policy tests read a component's restart budget",
    "repro.core.tree.RestartTree.structurally_equal": "test-side API: how the tree and snapshot tests compare a tree's shape",
    "repro.experiments.availability.AvailabilityResult.phase_summary": "test-side API: test_long_runs reads an availability cell's phase table through it",
    "repro.experiments.metrics.UptimeTracker.component_downtime": "test-side API: a figure test_metrics' differential compares",
    "repro.experiments.metrics.UptimeTracker.observed_mttf": "test-side API: a figure test_metrics' differential compares",
    "repro.experiments.recovery.RecoveryResult.phase_summary": "test-side API: test_recovery checks the phase table against the sampled totals through it",
    "repro.experiments.snapshot.template_count": "test-side API: how tests see a template hit or miss",
    "repro.faults.distributions.Deterministic": "reference: a fixed lifetime, the distribution and injector tests' reference",
    "repro.faults.distributions.LogNormal": "reference: a lifetime DESIGN.md section 3 lists; no station config selects it",
    "repro.faults.distributions.Weibull": "reference: the aging lifetime of DESIGN.md section 3; no station config selects it",
    "repro.faults.store_faults.StoreFaultModel.down_mode": "test-side API: how the store-fault tests read which outage is live",
    "repro.mercury.orbit.Satellite.expected_passes_per_day": "reference: the orbit tests' analytic pass rate",
    "repro.mercury.trees.SPLIT_COMPONENTS": "reference: the split generation's component set, twin of UNSPLIT_COMPONENTS",
    "repro.obs.events.EventRegistry.is_registered": "test-side API: how the event tests ask whether a kind is declared",
    "repro.obs.events.set_validation": "test-side API: tests/conftest.py validates every emit with it",
    "repro.obs.events.validation_enabled": "test-side API: reads the switch set_validation sets",
    "repro.obs.sinks.CallbackSink": "test-side API: four test suites watch a trace with it",
    "repro.procmgr.contention.StartupContention.active_count": "test-side API: how the contention tests count concurrent starts",
    "repro.procmgr.contention.StartupContention.is_starting": "test-side API: how the contention tests see a start in the pool",
    "repro.sim.kernel.Kernel.stopped": "test-side API: the stepping reference in tests/differential.py reads it",
    "repro.transport.network.Network.dials_parked": "test-side API: how tests count parked dials, which hold no kernel event",
    "repro.transport.network.NetworkFaultModel.heal": "reference: part of the fault alphabet of test_flat_transport_property's model",
    "repro.transport.network.NetworkFaultModel.restore": "reference: part of the fault alphabet of test_flat_transport_property's model",
    "repro.workload.plane.WorkloadPlane.in_flight": "test-side API: how tests count requests, whose deadlines hold no kernel event",
}


#: Public names only ``bench/`` mentions outside their definition, each with
#: the reason it stays: the product does not run them, and ``bench/`` is
#: changed only together with the benchmark it defines.
BENCH_ONLY_NAMES = {
    "repro.mercury.session_store.SessionStore.load_session": "bench: mercury.session_store.load_us times it; the product restores sessions through has_session and mark_restored",
    "repro.procmgr.process.constant_work": "bench: the bus timings build their broker process with it; tests build their rigs with it",
    "repro.sim.kernel.Kernel.schedule_interval": "bench: sim.kernel.dispatch_ns re-arms through this shim; ROADMAP item 1(c) re-points that timing and deletes it",
    "repro.transport.network.Network.connections_established": "bench: the transport.connections ledger count reads it",
    "repro.xmlcmd.fastpath.split_ping_wire": "bench: xmlcmd.ping_codec_ns times it; no receive site calls it, and ROADMAP item 1(b) re-points that timing and deletes it",
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


def _definitions(tree):
    """``(dotted name within the module, name, defining node)`` for each
    top-level class, function and assigned name of a module, and each method
    and property of its top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id, name.id, node


def unreferenced_names(root, package, reference_dirs):
    """Public names of ``package``'s non-``__init__`` modules (see
    :func:`_definitions`) that nothing under ``reference_dirs`` names
    outside the definition itself, as sorted dotted names.  Dunder and
    ``_``-prefixed names are not checked.  An ``__init__`` re-export is not a
    reference; a use elsewhere in the defining module is."""
    used = collections.Counter()
    for top in reference_dirs:
        for path in (root / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used += _identifiers(tree, skip_import_names=path.name == "__init__.py")
    modules, packages = parse_package(root / "src", package)
    return sorted(
        f"{module}.{dotted}"
        for module, tree in modules.items()
        if module not in packages
        for dotted, name, node in _definitions(tree)
        if not name.startswith("_") and used[name] <= _identifiers(node)[name]
    )


def test_every_module_is_reached_from_the_cli_or_listed():
    assert unreached_modules(ROOT / "src", "repro", "repro.cli") == sorted(ISLAND_MODULES)


def _outside_island_modules(names):
    """``names`` minus those a listed island module defines: its entry in
    ISLAND_MODULES is the reason they stay."""
    return sorted(
        name
        for name in names
        if not any(name.startswith(f"{module}.") for module in ISLAND_MODULES)
    )


def test_every_public_name_is_referenced_or_listed():
    islands = _outside_island_modules(unreferenced_names(ROOT, "repro", REFERENCE_DIRS))
    assert islands == sorted(ISLAND_NAMES)


def test_every_bench_only_name_is_listed():
    """A name only the benchmark references passes the island check unseen:
    listed here, each one's reason is on record."""
    without_bench = tuple(top for top in REFERENCE_DIRS if top != "bench")
    bench_only = set(unreferenced_names(ROOT, "repro", without_bench)) - set(
        unreferenced_names(ROOT, "repro", REFERENCE_DIRS)
    )
    assert _outside_island_modules(bench_only) == sorted(BENCH_ONLY_NAMES)


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
    (package / "used.py").write_text(
        "LIMIT = 3\n"
        "SPARE_LIMIT = LIMIT\n"
        "_PRIVATE = 4\n"
        "\n"
        "def helper():\n"
        "    return Tool().run() + Tool().size\n"
        "\n"
        "def spare():\n"
        "    return spare\n"
        "\n"
        "class Tool:\n"
        "    def __init__(self):\n"
        "        self.n = LIMIT\n"
        "\n"
        "    def run(self):\n"
        "        return self.n\n"
        "\n"
        "    def idle(self):\n"
        "        return self.idle\n"
        "\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "\n"
        "    @property\n"
        "    def weight(self):\n"
        "        return 2\n"
    )
    (package / "island.py").write_text("class Lonely:\n    pass\n")
    assert unreached_modules(tmp_path / "src", "pkg", "pkg.cli") == ["pkg.island"]
    assert unreferenced_names(tmp_path, "pkg", ("src",)) == [
        "pkg.cli.main",
        "pkg.island.Lonely",
        "pkg.used.SPARE_LIMIT",
        "pkg.used.Tool.idle",
        "pkg.used.Tool.weight",
        "pkg.used.spare",
    ]
