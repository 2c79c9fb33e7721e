"""Grids, stencils, rate fits, and the package's public names, dataclass fields and imports."""

import ast
import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from nulldust.errors import NonFiniteError
from nulldust.grids import AngularGrid, Grid1D
from nulldust.rates import fit_rate
from nulldust.stencils import _deriv_multiplier, deriv1_fd4, deriv1_fd4_periodic, spectral_deriv


def test_grid1d_invariants():
    g = Grid1D(0.0, 1.0, 11)
    assert g.h == 0.1
    assert len(g.points()) == 11
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 11)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 1)
    fine = Grid1D(g.a, g.b, 2 * (g.n - 1) + 1)  # nested refinement
    assert np.allclose(fine.points()[::2], g.points())


def test_angular_grid_invariants():
    with pytest.raises(ValueError):
        AngularGrid(2, 8)
    chart = AngularGrid(8, 16, 1.0, 2.0)
    t1, t2 = chart.mesh()
    assert t1.shape == (8, 16)
    assert t1.max() < 1.0  # no duplicate wrap node
    assert abs(chart.cell_area - (1.0 / 8) * (2.0 / 16)) < 1e-15


def test_fd4_matches_quartic_exactly():
    grid = Grid1D(0.0, 1.0, 21)
    x = grid.points()
    y = x**4 - 2 * x**3 + x
    dy = 4 * x**3 - 6 * x**2 + 1
    assert np.abs(deriv1_fd4(y, grid.h) - dy).max() < 1e-12


def test_fd4_order():
    errs, hs = [], []
    for n in (33, 65, 129, 257):
        grid = Grid1D(0.0, 1.0, n)
        x = grid.points()
        err = np.abs(deriv1_fd4(np.exp(np.sin(3 * x)), grid.h)
                     - 3 * np.cos(3 * x) * np.exp(np.sin(3 * x))).max()
        errs.append(err)
        hs.append(grid.h)
    assert fit_rate(hs, errs) >= 3.8


def test_periodic_fd4_wraps():
    n = 64
    x = np.arange(n) * (2 * np.pi / n)
    y = np.sin(x)
    d = deriv1_fd4_periodic(y, 2 * np.pi / n, 0)
    assert np.abs(d - np.cos(x)).max() < 1e-5  # h^4 truncation at this n


def test_spectral_derivative_exact_for_band_limited():
    n = 32
    x = np.arange(n) * (2 * np.pi / n)
    y = np.sin(5 * x) + 0.3 * np.cos(3 * x)
    d = spectral_deriv(y, 2 * np.pi, 0)
    assert np.abs(d - (5 * np.cos(5 * x) - 0.9 * np.sin(3 * x))).max() < 1e-12


def test_spectral_derivative_along_a_size_one_axis_is_zero_without_a_transform(monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("an FFT along an axis of size 1")

    monkeypatch.setattr(np.fft, "fft", no_transform)
    monkeypatch.setattr(np.fft, "ifft", no_transform)
    rng = np.random.default_rng(5)
    for shape, axis in (((3, 16, 1), -1), ((1, 16), 0)):
        d = spectral_deriv(rng.standard_normal(shape), 1.5, axis)
        assert d.shape == shape and d.tobytes() == np.zeros(shape).tobytes()  # +0.0 everywhere


def test_spectral_multiplier_cached_read_only():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((3, 12, 8))
    for axis, period in ((1, 2 * np.pi), (2, 1.5)):
        n = f.shape[axis]
        mult = 1j * (2.0 * np.pi * np.fft.fftfreq(n, d=period / n))
        mult[n // 2] = 0.0
        shape = [1, 1, 1]
        shape[axis] = n
        direct = np.real(np.fft.ifft(np.fft.fft(f, axis=axis) * mult.reshape(shape), axis=axis))
        assert np.array_equal(spectral_deriv(f, period, axis), direct)
        cached = _deriv_multiplier(n, period)
        assert cached is _deriv_multiplier(n, period)
        assert cached.shape == (n,)
        assert not cached.flags.writeable


def test_rate_fit_exact_and_noisy():
    xs = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    assert abs(fit_rate(xs, 1.0 / xs) + 1.0) < 1e-10
    rng = np.random.default_rng(0)
    ys = (1.0 / xs) * (1.0 + 0.01 * rng.standard_normal(len(xs)))
    assert abs(fit_rate(xs, ys) + 1.0) < 0.05
    assert abs(fit_rate(xs, np.full(len(xs), 3.3))) < 1e-12


def test_rate_fit_through_an_exact_zero_fails_every_slope_check():
    # a table whose last rows reached an exact 0 has no rate; a 0 read as the
    # float floor, 2.2e-308, would fit a slope in the hundreds and pass any >= bound
    xs = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    for ys in ([0.23, 1e-3, 0.0, 0.0, 0.0], [9.6, 1.1, 2.6e-89, 0.0, 0.0], [0.0] * 5):
        slope = fit_rate(xs, ys)
        assert np.isnan(slope)
        assert not slope >= 0.9 and not slope <= 0.2


def test_rate_fit_needs_four_points():
    with pytest.raises(ValueError, match="4 points"):
        fit_rate([1.0, 0.5, 0.25], [1.0, 2.0, 4.0])


def test_rate_fit_of_non_finite_data_is_numerical_failure():
    # a NumericalFailure, not a ValueError: the CLI exits 1 with an error summary, not 2
    xs = [1.0, 0.5, 0.25, 0.125]
    for bad_xs, bad_ys in ((xs, [1.0, np.nan, 4.0, 8.0]), (xs, [1.0, 2.0, np.inf, 8.0]),
                           ([np.inf] + xs[1:], [1.0, 2.0, 4.0, 8.0])):
        with pytest.raises(NonFiniteError):
            fit_rate(bad_xs, bad_ys)
    with pytest.raises(ValueError, match="nonnegative"):
        fit_rate(xs, [1.0, -2.0, 4.0, 8.0])


SRC = Path(__file__).resolve().parent.parent / "src" / "nulldust"


def _imported_module(node: ast.ImportFrom, alias: ast.alias):
    """(module, name) that one alias of a package-relative or nulldust import binds:
    name is None when the alias binds the module itself."""
    if node.level == 1 or node.module == "nulldust" or (node.module or "").startswith("nulldust."):
        base = node.module.removeprefix("nulldust").lstrip(".") if node.level == 0 else node.module
        if base:
            return base, alias.name
        return alias.name, None
    return None, None


def unreferenced_public_names(src: Path) -> list:
    """"module.name" of every public top-level def and class in src/*.py that
    nothing in src/ references outside its own definition.

    A reference is a use inside the name's own module, a use after
    `from .module import name`, or an attribute access `alias.name` where
    alias is bound to the module by `from . import module [as alias]` or
    `import nulldust.module as alias`.  A local of the same name in another
    module does not count.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = set()
    for mod, tree in trees.items():
        names, modules = {}, {}  # local name -> (module, name); local alias -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    target, name = _imported_module(node, alias)
                    if target is not None and name is not None:
                        names[alias.asname or alias.name] = (target, name)
                    elif target is not None:
                        modules[alias.asname or alias.name] = target
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("nulldust.") and alias.asname:
                        modules[alias.asname] = alias.name.removeprefix("nulldust.")
        inside = {}  # id(node) -> the top-level definition it belongs to
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                for node in ast.walk(top):
                    inside[id(node)] = top.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if inside.get(id(node)) != node.id:
                    used.add((mod, node.id))
                if node.id in names:
                    used.add(names[node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    used.add((modules[node.value.id], node.attr))
    return [
        f"{mod}.{top.name}"
        for mod, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and not top.name.startswith("_")
        and (mod, top.name) not in used
    ]


def test_every_public_name_is_referenced_in_src():
    # a public def or class that only tests call belongs in tests/ as an oracle
    assert unreferenced_public_names(SRC) == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass")
        for d in cls.decorator_list
    )


def unread_dataclass_fields(src: Path) -> list:
    """"module.Class.field" of every @dataclass field in src/*.py whose name is
    never loaded as an attribute (`x.field`) anywhere in src/.

    Matching is by name only: a field counts as read when any attribute of
    that name is read, whatever the object.  So fields with common names (n,
    k, b, name, grids) are never caught; those need a look by hand.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{mod}.{cls.name}.{stmt.target.id}"
        for mod, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]


# field -> why it stays although nothing in src/ reads it
UNREAD_FIELDS_KEPT = {}


def test_every_dataclass_field_is_read_in_src():
    # a field that only tests read belongs in tests/ (an oracle recomputes it) or nowhere
    assert [f for f in unread_dataclass_fields(SRC) if f not in UNREAD_FIELDS_KEPT] == []


def absolute_imports(path: Path) -> list:
    """(line, module) of every absolute import in one file, wherever it sits:
    `import a.b` and `from a.b import c` both give a.b."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            hits.append((node.lineno, node.module))
    return hits


def package_qualified_test_imports(tests: Path) -> list:
    """"file:line" of every import that reaches a test module through the
    tests package (`import tests.x`, `from tests.x import ...`,
    `from tests import x`).  Those resolve only when the repository root is
    on sys.path, as under `python -m pytest`; `from test_x import ...`
    resolves under plain `pytest` too."""
    return [
        f"{path.name}:{line}"
        for path in sorted(tests.glob("*.py"))
        for line, module in absolute_imports(path)
        if module.partition(".")[0] == "tests"
    ]


def test_no_test_module_imported_through_the_tests_package():
    assert package_qualified_test_imports(Path(__file__).resolve().parent) == []


def third_party_imports(src: Path) -> list:
    """"file:line module" of every absolute import in src/*.py of a module that
    is neither in the standard library nor numpy nor nulldust itself (a
    guarded `try: import ...` counts too)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "nulldust"}
    return [
        f"{path.name}:{line} {module}"
        for path in sorted(src.glob("*.py"))
        for line, module in absolute_imports(path)
        if module.partition(".")[0] not in allowed
    ]


def test_src_imports_only_stdlib_and_numpy():
    # the RK4 kernels are plain Python and numpy; no compiled or optional backend
    assert third_party_imports(SRC) == []


def tol_reads(path: Path) -> list:
    """Line numbers at which a module reads the name TOL: a load of `TOL`, an
    attribute `x.TOL`, or an import binding it."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "TOL")
        or (isinstance(node, ast.Attribute) and node.attr == "TOL")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "TOL" for alias in node.names))
    ]


def test_cli_never_reads_tolerances():
    # the criteria own every check against acceptance.TOL; a CLI demo reports values
    assert tol_reads(SRC / "cli.py") == []


README_ALIASES = {"calc": "calculus"}  # README's short name for a module


def readme_names(text: str, src: Path) -> list:
    """Every backticked `module.name[.attr]` of text, call arguments dropped,
    whose first part is a module of src or an alias in README_ALIASES."""
    modules = {p.stem for p in src.glob("*.py")} | set(README_ALIASES)
    spans = (re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(\(.*\))?", s) for s in re.findall(r"`([^`\n]+)`", text))
    return sorted({m[1] for m in spans if m and m[1].partition(".")[0] in modules})


def stale_names(names: list) -> list:
    """The names that do not resolve by getattr from their nulldust module."""
    stale = []
    for name in names:
        head, *attrs = name.split(".")
        obj = importlib.import_module("nulldust." + README_ALIASES.get(head, head))
        for attr in attrs:
            if not hasattr(obj, attr):
                stale.append(name)
                break
            obj = getattr(obj, attr)
    return stale


def test_readme_names_resolve():
    # a renamed or deleted function leaves no name behind in the README
    names = readme_names((SRC.parent.parent / "README.md").read_text(), SRC)
    assert {"odesolve.march", "calc.hat", "acceptance.TOL"} <= set(names)
    assert stale_names(names) == []
    found = readme_names("`odesolve._distinct_columns(phi)`, `calc.nope.count`, `sol.deriv(ub)`, `np.fft`", SRC)
    assert found == ["calc.nope.count", "odesolve._distinct_columns"]
    assert stale_names(found) == found
