"""pyproject.toml declares only what the package uses and ships, and
``qcore`` exports only what a model or the benchmark calls."""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def project():
    """pyproject.toml's ``[project]`` table; ``tomllib`` is stdlib from 3.11."""
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def package_import_nodes():
    """(module path, import node) for every import statement under src/quatro."""
    for path in sorted((ROOT / "src" / "quatro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path, node


def imported_top_level_names():
    names = set()
    for _, node in package_import_nodes():
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_dependency_is_imported():
    imported = imported_top_level_names()
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group(0) for req in project()["dependencies"]]
    assert [n for n in names if n.replace("-", "_").lower() not in imported] == []


def test_every_script_target_resolves():
    for target in project().get("scripts", {}).values():
        module_name, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module_name), attr)), target


def test_no_module_imports_private_names():
    private = [
        f"{path.relative_to(ROOT)}: {alias.name}"
        for path, node in package_import_nodes()
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_qcore_all_lists_exactly_its_public_imports():
    import quatro.qcore as qcore

    init = ast.parse((ROOT / "src" / "quatro" / "qcore" / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert [name for name in qcore.__all__ if not hasattr(qcore, name)] == []
    assert sorted(qcore.__all__) == sorted(set(imported))


def names_used(source: str) -> set[str]:
    """Names a module's source uses: as a name, an attribute, an imported
    name or an exact string (``getattr(qcore, "...")``) that is not a dict
    key. A key such as ``perfbench.layers.TRACED``'s names what the tracer
    wraps, not what anything calls."""
    tree = ast.parse(source)
    keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict) for k in node.keys}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in keys:
            used.add(node.value)
    return used


def test_a_dict_key_is_not_a_use():
    source = 'TRACED = {"wrapped": "m"}\nKERNELS = {"metric": ("called", ())}\n'
    assert names_used(source) >= {"called", "m"}
    assert not names_used(source) & {"wrapped", "metric"}


def test_every_qcore_name_has_a_caller():
    """A name in ``qcore.__all__`` is used outside ``qcore/__init__.py``, by
    the package or the benchmark (see ``names_used``)."""
    import quatro.qcore as qcore

    init = ROOT / "src" / "quatro" / "qcore" / "__init__.py"
    paths = [*(ROOT / "src" / "quatro").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(names_used(path.read_text()) for path in paths if path != init))
    assert sorted(set(qcore.__all__) - used) == []



def imported_names(path: Path) -> list[str]:
    """Every dotted name a file imports; ``from a import b`` gives ``a`` and
    ``a.b``, and a relative name keeps its leading dots."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names += [base, *(f"{base}.{alias.name}" for alias in node.names)]
    return names


def test_no_test_module_imports_another():
    """Shared test helpers live in ``tests/oracles.py``, so each test module
    stands alone."""
    crossed = [
        f"{path.name}: {name}"
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        for name in imported_names(path)
        if any(part.startswith("test_") for part in name.split("."))
    ]
    assert crossed == []


def test_oracles_import_nothing_from_quatro():
    """The reference matrices and laws share no code with what they check."""
    names = imported_names(ROOT / "tests" / "oracles.py")
    assert [name for name in names if name.split(".")[0] == "quatro"] == []
