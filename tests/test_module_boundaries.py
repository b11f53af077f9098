"""Modules of the package use each other only through public names."""

import ast
from pathlib import Path

import roughwz

PACKAGE_DIR = Path(roughwz.__file__).parent


def private_imports(source: str, filename: str = "<source>") -> list[str]:
    """Every `from .x import _name` (or `from roughwz.x import _name`) in source."""
    hits = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "roughwz":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                hits.append(f"{filename}:{node.lineno}: {'.' * node.level}{module}.{alias.name}")
    return hits


def test_detector_sees_private_names():
    source = "from .norms import _dp, pvar\nfrom roughwz.lift import _x\nfrom os import _exit\n"
    assert private_imports(source) == ["<source>:1: .norms._dp", "<source>:2: roughwz.lift._x"]


def test_no_module_imports_private_names_of_another():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 8
    hits = [hit for path in paths for hit in private_imports(path.read_text(), path.name)]
    assert hits == []
