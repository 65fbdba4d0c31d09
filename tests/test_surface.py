"""The public surface: each module's ``__all__``, the package exports and the
README's Python examples."""

import ast
import collections
import importlib
import pathlib
import pkgutil
import re

import pytest

import projqm

MODULES = sorted(m.name for m in pkgutil.iter_modules(projqm.__path__))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
README_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


@pytest.mark.parametrize("short", MODULES)
def test_every_all_entry_resolves_and_star_import_works(short):
    mod = importlib.import_module(f"projqm.{short}")
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from projqm.{short} import *", namespace)
    assert set(exported) <= set(namespace)


#: The names ``projqm`` exported before it re-exported each module's
#: ``__all__`` whole, submodules excluded; none may go.
EXPORTED_BEFORE = """
    ChartPoint GeodesicPath InterferencePattern KahlerScale LinearDependenceError Ray
    Report ReportEntry RiemannCoordinate SlitWall SpannedSphere TangentVector
    TotalGeodesyCertificate Trajectory TwoSlitConfig UncertaintyAudit as_hermitian
    as_state build_wall commutator_closure_residual commutator_expectation
    derive_observable_scale_factor digest_inputs evolve_exact expectation
    expectation_rate flow_integrate flow_transport flow_vs_exact_deviation
    fringe_spacing fs_distance gaussian_input gram_schmidt hamiltonian_vector_field
    horizontal_project integrate_geodesic integrated_pair_distances killing_residual
    lie_derivative_normal lowering_operator metric_eval momentum_operator
    noncommuting_control nonlinear_superpose pattern_rows phase_invariance_check
    plane_wave_input poisson_bracket position_operator project projector_poisson_check
    propagate_to_screen random_horizontal ray_to_chart rays_close riemann_coordinate
    riemannian_product sigma_x sigma_y sigma_z slit_states sphere_area
    sphere_membership symmetrized_covariance symplectic_eval total_geodesy_certificate
    trajectory_rows transition_probability uncertainty_audit variance write_csv
""".split()


def test_package_exports_every_module_all():
    """``projqm.__all__`` is the union of the library modules' ``__all__``
    lists plus those modules' names, and each name is the module's object."""
    library = [short for short in MODULES if short != "cli"]
    declared = {}
    for short in library:
        mod = importlib.import_module(f"projqm.{short}")
        declared.update((name, getattr(mod, name)) for name in mod.__all__)
    assert sorted(projqm.__all__) == sorted([*declared, *library])
    assert all(getattr(projqm, name) is obj for name, obj in declared.items())
    assert len(EXPORTED_BEFORE) == 71
    assert set(EXPORTED_BEFORE) <= set(declared)


def test_readme_python_blocks_run():
    """The README's ```python blocks run, in order, in one namespace."""
    text = README.read_text()
    blocks = list(README_BLOCK.finditer(text))
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        # pad with blank lines so a traceback names the README's own line
        padded = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(padded, str(README), "exec"), namespace)


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names an ``import`` in ``path`` binds and no expression reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


#: Imports bound on purpose and never read, by module.  perfbench's
#: ``test_tracer_wraps_every_namespace_and_restores_them`` asserts that
#: ``projqm.interference.poisson_bracket`` and ``projqm.geodesics.project``
#: are wrapped by the tracer.
UNREAD_ON_PURPOSE = {"src/projqm/interference.py": {"poisson_bracket"},
                     "src/projqm/geodesics.py": {"project"}}


def test_no_module_imports_a_name_it_never_uses():
    """Every module of ``src/projqm``, ``tests`` and ``scripts`` reads each name
    it imports; ``projqm/__init__.py`` is exempt, as its imports re-export,
    and so is each name of ``UNREAD_ON_PURPOSE``, which must stay unread."""
    root = README.parent
    paths = [p for folder in ("src/projqm", "tests", "scripts")
             for p in sorted((root / folder).glob("*.py"))
             if p.relative_to(root).as_posix() != "src/projqm/__init__.py"]
    assert len(paths) > 20
    unused = {p.relative_to(root).as_posix(): _unused_imports(p) for p in paths}
    for path, kept in UNREAD_ON_PURPOSE.items():
        names = {entry.split(" ")[0] for entry in unused[path]}
        assert kept <= names, f"{path}: {kept - names} now read; drop the exemption"
        unused[path] = [e for e in unused[path] if e.split(" ")[0] not in kept]
    assert {path: names for path, names in unused.items() if names} == {}


#: Public members that only their own tests read, each with the reason it
#: stays; each must still be unread.
UNREAD_MEMBERS_ON_PURPOSE = {
    "GeodesicPath.max_speed_drift": "the step-size diagnostic the geodesic reports are to carry",
}


def _reader_nodes() -> list[ast.AST]:
    """Every node of the code whose reads count: the library, the scripts, the
    acceptance criteria, the benchmark and the README's Python examples."""
    root = README.parent
    paths = [*(root / "src/projqm").glob("*.py"), *(root / "scripts").glob("*.py"),
             root / "tests/test_acceptance.py", *(root / "perfbench").rglob("*.py")]
    sources = [p.read_text() for p in paths]
    sources += [m.group(1) for m in README_BLOCK.finditer(README.read_text())]
    return [node for source in sources for node in ast.walk(ast.parse(source))]


def test_every_public_member_is_read_and_every_default_is_overridden():
    """Each public method, property and classmethod of a ``src/projqm`` class
    is read as ``.name`` by the readers of :func:`_reader_nodes`, and each
    defaulted parameter of a public function or method is passed, by keyword
    or by position, by some call to a function of that name.  Names match
    without types, so the rule can miss an unused member or keyword but
    never flags a used one."""
    nodes = _reader_nodes()
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    passed = collections.defaultdict(set)  # name -> keywords and positions; None: any
    for call in (node for node in nodes if isinstance(node, ast.Call)):
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        passed[name] |= {k.arg for k in call.keywords} | set(range(len(call.args)))
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            passed[name].add(None)
    unread, unpassed = set(), []
    for path in sorted((README.parent / "src/projqm").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [("", tree), *((f"{c.name}.", c) for c in tree.body
                                if isinstance(c, ast.ClassDef))]
        for prefix, scope in scopes:
            for f in scope.body:
                if not isinstance(f, ast.FunctionDef) or f.name.startswith("_"):
                    continue
                if prefix and f.name not in read:
                    unread.add(prefix + f.name)
                pos = (f.args.posonlyargs + f.args.args)[bool(prefix):]  # no self, cls
                defaulted = list(enumerate(pos))[len(pos) - len(f.args.defaults):]
                defaulted += [(None, a) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                              if d is not None]
                unpassed += [f"{prefix}{f.name}({a.arg}=)" for i, a in defaulted
                             if not {a.arg, i, None} & passed[f.name]]
    kept = set(UNREAD_MEMBERS_ON_PURPOSE)
    assert kept <= unread, f"{kept - unread} now read; drop the exemption"
    unread -= kept
    assert not unread and not unpassed, (f"members no reader reads: {sorted(unread)}; "
                                         f"defaults no call overrides: {unpassed}")
