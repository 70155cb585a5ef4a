"""Imports: every import is used, the package exports its names
lazily, and a run loads only the layers it calls.

The unused-import check is a stdlib ``ast`` scan, so it runs wherever
the tests run: a name bound by an import must be read somewhere in its
module or listed in the module's ``__all__``.  Package ``__init__``
files are skipped, because re-exporting is what their imports are for.
The load checks run in fresh interpreters, since this process has
imported every layer already.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardtorus

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in (ROOT / "src" / "hardtorus", ROOT / "tests")
               for p in d.glob("*.py") if p.name != "__init__.py")


def _bound_names(node):
    """(name, line) pairs an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((alias.asname or alias.name).split(".")[0], node.lineno)
            for alias in node.names]


def _exported(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            out |= {elt.value for elt in node.value.elts}
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = [pair for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for pair in _bound_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [f"line {line}: {name}" for name, line in bound if name not in used]


def test_scanner_flags_unused_and_keeps_used():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport json\nfrom math import pi, tau as t\n"
           "__all__ = ['pi']\nprint(os.sep, t)\n")
    assert unused_imports(src) == ["line 3: json"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# every name the package exports, by defining module
EXPORTS = {
    "config": ["ExperimentConfig", "parse_config", "serialize_config"],
    "errors": ["ConfigError", "FeasibilityError", "IllConditionedAdvanceError",
               "NumericalFailureError", "PerturbationTooLargeError",
               "SingularSegmentError", "StateCorruptionError",
               "TangentialFrameError", "ValidationError"],
    "events": ["TrajectorySegment", "reverse_state", "simulate",
               "symbolic_sequence"],
    "geometry": ["PhaseState", "ReducedSpace", "SystemParams", "Tolerances",
                 "energy", "mass_inner", "mass_norm", "min_gap", "momentum",
                 "project_to_Z", "reduced_space", "sample_state",
                 "transverse_basis", "validate_params", "validate_state"],
    "neutral": ["AdvanceReport", "CollisionGraph", "NeutralSpaceResult",
                "SufficiencyVerdict", "advance", "advance_report",
                "collision_graph", "is_sufficient", "neutral_report",
                "neutral_space", "neutral_translate"],
    "tangent": ["CollisionFrame", "NormalVector", "TangentVector",
                "frame_for_event", "propagate_normal", "propagate_tangent",
                "q_of", "reverse_normal", "transport_between"],
    "hyperbolic": ["CollisionRateReport", "CurvatureOperator",
                   "CurvaturePath", "ExpansionCheck", "LyapunovSpectrum",
                   "QEvolutionAudit", "collision_rate",
                   "curvature_consistency", "curvature_propagate",
                   "expansion_check", "hyperbolicity_series",
                   "lyapunov_spectrum", "q_evolution_audit", "summary_dict",
                   "write_series_csv"],
    "degenerate": ["LatticeDirection", "RadiusFlags", "admissible_directions",
                   "degeneracy_report", "degenerate_radius_check", "in_L",
                   "perpendicular_speed"],
    "rng": ["make_generator"],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)


class TestExports:
    def test_count(self):
        assert len(ALL_NAMES) == 74
        assert sorted(hardtorus.__all__) == ALL_NAMES

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_resolve_to_defining_objects(self, module):
        owner = importlib.import_module(f"hardtorus.{module}")
        for name in EXPORTS[module]:
            ns: dict = {}
            exec(f"from hardtorus import {name}", ns)
            assert ns[name] is getattr(owner, name), name

    def test_dir_lists_every_name(self):
        assert set(ALL_NAMES) <= set(dir(hardtorus))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(hardtorus, "no_such_name")
        with pytest.raises(ImportError):
            exec("from hardtorus import no_such_name", {})


def _references(tree, skip: str) -> set[str]:
    """Names the tree reads, imports or looks up as attributes, outside
    the body of any function or class named ``skip``.  Assigning a name
    does not reference it."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def private_names(source: str) -> list[str]:
    """Module-level private functions, classes and constants of a
    source, dunder hooks such as ``__getattr__`` left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__"))]


def unreached_exports(exports, sources) -> list[str]:
    """Exported names that no source references outside their own
    definition."""
    trees = [ast.parse(src) for src in sources]
    return [name for names in exports.values() for name in names
            if not any(name in _references(tree, name) for tree in trees)]


# the package's own modules and the acceptance criteria: what a name
# must be reached from to count as live
_PACKAGE_SOURCES = [
    p.read_text(encoding="utf-8")
    for p in [*sorted((ROOT / "src" / "hardtorus").glob("*.py")),
              ROOT / "tests" / "test_acceptance.py"]]


class TestNoDeadExports:
    """Every exported name is reached by the package itself (a module
    or a CLI path) or by an acceptance criterion, not only by its own
    unit tests."""

    def test_scanner_flags_unreached_and_self_references(self):
        src = ("from .m import used\n"
               "def self_only():\n    return self_only()\n"
               "def caller():\n    return obj.method(used)\n")
        exports = {"m": ("used", "method", "self_only", "caller", "absent")}
        assert unreached_exports(exports, [src]) == [
            "self_only", "caller", "absent"]

    def test_scanner_lists_private_module_names(self):
        src = ("_A = 1\n_b: int = 2\n_c, (D, _e) = 3, (4, 5)\n"
               "__all__ = []\nPUBLIC = 6\n"
               "def _f():\n    _local = 7\n"
               "class _G:\n    _attr = 8\n"
               "def __getattr__(name):\n    pass\n")
        assert private_names(src) == ["_A", "_b", "_c", "_e", "_f", "_G"]
        # a constant's own assignment does not reach it
        assert unreached_exports({"m": ["_A", "_f"]},
                                 [src + "_f()\n"]) == ["_A"]

    def test_every_export_is_reached(self):
        assert unreached_exports(hardtorus._EXPORTS, _PACKAGE_SOURCES) == []

    def test_every_private_name_is_reached(self):
        # module-level private code that only unit tests call is dead
        # code too
        private = {p.stem: private_names(p.read_text(encoding="utf-8"))
                   for p in sorted((ROOT / "src" / "hardtorus").glob("*.py"))}
        assert unreached_exports(private, _PACKAGE_SOURCES) == []


LAYERS = ("events", "tangent", "neutral", "hyperbolic", "degenerate")
CONFIG_TEXT = "[system]\nmasses = 1.0, 1.3, 0.7\nradius = 0.1\n"


def loaded_after(code: str) -> set[str]:
    """Module names a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, check=True)
    return set(out.stdout.split())


class TestLoadedLayers:
    def test_set_up_loads_no_analysis_layer(self):
        loaded = loaded_after(
            "import hardtorus\n"
            f"config = hardtorus.parse_config({CONFIG_TEXT!r})\n"
            "hardtorus.sample_state(config.seed, config.params)")
        assert not loaded & {f"hardtorus.{m}" for m in LAYERS}
        assert "hardtorus.geometry" in loaded

    def test_config_loads_no_analysis_layer(self):
        loaded = loaded_after("import hardtorus.config")
        assert not loaded & {f"hardtorus.{m}" for m in LAYERS}

    def test_cli_defers_neutral_degenerate_and_pool(self):
        loaded = loaded_after("import hardtorus.cli")
        assert not loaded & {"hardtorus.neutral", "hardtorus.degenerate",
                             "multiprocessing"}

    @pytest.mark.parametrize("subcommand, extra, one_cpu", [
        ("lyapunov", "[analysis]\nensemble = 1\n", False),
        ("lyapunov", "[analysis]\nensemble = 2\n", True),
        ("scan", "[scan]\nradius_grid = 0.1, 0.09\n", True),
    ])
    def test_run_without_lanes_loads_no_pool(self, tmp_path, subcommand,
                                             extra, one_cpu):
        # a one-member ensemble, or any run with one usable CPU, runs its
        # tasks in a plain loop
        text = CONFIG_TEXT + "[run]\nt_max = 50\n" + extra
        loaded = loaded_after(
            "import os\n"
            + ("os.cpu_count = lambda: 1\n" if one_cpu else "")
            + "from hardtorus import cli, parse_config\n"
            f"cli.run({subcommand!r}, parse_config({text!r}), "
            f"{str(tmp_path)!r})")
        assert "hardtorus.hyperbolic" in loaded
        assert "multiprocessing" not in loaded

    def test_run_with_lanes_loads_multiprocessing(self, tmp_path):
        # the control for the two checks above: two lanes start workers
        text = (CONFIG_TEXT + "[run]\nt_max = 50\n"
                "[analysis]\nensemble = 2\n")
        loaded = loaded_after(
            "import os\n"
            "os.cpu_count = lambda: 2\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from hardtorus import cli, parse_config\n"
            f"cli.run('lyapunov', parse_config({text!r}), {str(tmp_path)!r})")
        assert "multiprocessing" in loaded

    def test_submodule_resolves_after_bare_import(self):
        loaded_after("import sys, hardtorus\n"
                     "assert 'hardtorus.events' not in sys.modules\n"
                     "assert hardtorus.events is sys.modules['hardtorus.events']")
