"""Modules of the package use each other only through public names."""

import ast
import builtins
import importlib
import inspect
import io
import re
import tokenize
import types
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


def submodules():
    return [
        importlib.import_module(f"roughwz.{path.stem}")
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if not path.stem.startswith("__")
    ]


def test_every_exported_name_exists():
    modules = submodules()
    assert len(modules) >= 7
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in mod.__all__
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imports
    unexported = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"roughwz.{node.module}").__all__
    ]
    assert unexported == []


README = PACKAGE_DIR.parents[1] / "README.md"


def readme_api_names(text: str) -> list[str]:
    """Names in inline code spans of text: dotted ones that start at roughwz
    or one of its names, and spans that are one bare CamelCase name.

    A first part counts when it is roughwz or a public attribute of the
    package: a submodule or a name it exports.  A bare CamelCase span
    (`GridRoughPath`, not `H` or `NaN`) counts whatever it names, so a class
    the package no longer has is read too.  Fenced code blocks are skipped.
    """
    submodules()
    roots = {"roughwz", *(name for name in vars(roughwz) if not name.startswith("_"))}
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    dotted = (
        name
        for span in spans
        for name in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
    )
    bare = {span for span in spans if re.fullmatch(r"[A-Z][a-z]+[A-Z][a-z]\w*", span)}
    return sorted({name for name in dotted if name.split(".")[0] in roots} | bare)


def resolves(name: str) -> bool:
    """name is an attribute path from roughwz or one of its names, or a builtin."""
    first, *rest = name.split(".")
    if first == "roughwz":
        obj = roughwz
    elif hasattr(roughwz, first):
        obj = getattr(roughwz, first)
    else:
        return not rest and hasattr(builtins, first)
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_api_names_finds_dotted_roughwz_names():
    text = (
        "`norms.partition_sums` and `GridRoughPath.stack(paths)`, `src/roughwz/rde.py`,\n"
        "`report.passed`, `GridRoughPath.no_such_block`\n```\nnorms.gone\n```\n"
    )
    names = readme_api_names(text)
    assert names == ["GridRoughPath.no_such_block", "GridRoughPath.stack", "norms.partition_sums"]
    assert [name for name in names if not resolves(name)] == ["GridRoughPath.no_such_block"]


def test_readme_api_names_finds_bare_camelcase_spans():
    text = (
        "`GridRoughPath`, `MemoryError`, `DeletedClass`, `H`, `NaN`, `Ok`,\n"
        "`DeletedClass(x)` and\n```\nGoneAlso\n```\n"
    )
    names = readme_api_names(text)
    assert names == ["DeletedClass", "GridRoughPath", "MemoryError"]
    assert [name for name in names if not resolves(name)] == ["DeletedClass"]


def test_readme_names_resolve():
    names = readme_api_names(README.read_text())
    assert names
    assert [name for name in names if not resolves(name)] == []


# A window is taken by restricting a path, never by parameters of a measure.
WINDOW_TAKERS = ["fbm.TimeGrid.window", "lift.GridRoughPath.restrict"]
WINDOW_PARAMETERS = {"i_lo", "i_hi", "start"}


def window_takers_of(mod) -> list[str]:
    """Functions of mod with a window parameter.

    Read are the exported functions, every method of an exported class and
    the private module-level functions defined in mod.
    """
    prefix = mod.__name__.split(".")[-1]
    funcs = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj):
            methods = inspect.getmembers(obj, inspect.isfunction)
            funcs += [(f"{name}.{attr}", fn) for attr, fn in methods]
        elif inspect.isfunction(obj):
            funcs.append((name, obj))
    funcs += [
        (name, obj)
        for name, obj in vars(mod).items()
        if name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
    ]
    return sorted(
        f"{prefix}.{qualname}"
        for qualname, fn in funcs
        if WINDOW_PARAMETERS & set(inspect.signature(fn).parameters)
    )


def test_window_detector_sees_private_functions_and_start():
    mod = types.ModuleType("roughwz.fake")
    source = (
        "from os.path import join as _join\n"
        "__all__ = ['f', 'K']\n"
        "def f(x, i_lo): pass\n"
        "def g(x, start): pass\n"
        "def _h(rp, p, start): pass\n"
        "def _ok(rp, p): pass\n"
        "class K:\n"
        "    def restrict(self, i_lo, i_hi): pass\n"
        "    def _span(self, i_hi): pass\n"
    )
    exec(source, vars(mod))
    assert window_takers_of(mod) == ["fake.K._span", "fake.K.restrict", "fake._h", "fake.f"]


def test_only_restrict_takes_a_node_window():
    assert sorted(hit for mod in submodules() for hit in window_takers_of(mod)) == WINDOW_TAKERS


ROOT = PACKAGE_DIR.parents[1]


def named_uses(source: str) -> set[str]:
    """Every name token of source code but the one right after def or class.

    Strings and comments are not names, so docstrings and the entries of
    __all__ lists do not count as uses.
    """
    uses, prev = set(), None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME and prev not in ("def", "class"):
            uses.add(tok.string)
        prev = tok.string
    return uses


def package_exports() -> list[str]:
    """The names that roughwz/__init__.py imports from its modules."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    return sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def test_named_uses_skips_definitions_strings_and_comments():
    source = (
        'def f(x):\n    """g is here."""\n    return g(x)  # h\n'
        'class K:\n    pass\n__all__ = ["f", "K"]\n'
    )
    assert named_uses(source) == {"def", "x", "return", "g", "class", "pass", "__all__"}


def test_every_export_is_reached():
    # A public name must be used by the package itself, by an acceptance
    # criterion or by the benchmark; a name only tests call is dead code.
    paths = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    paths += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    assert len(paths) >= 10
    uses = set().union(*(named_uses(path.read_text()) for path in paths))
    exports = package_exports()
    assert len(exports) >= 40
    assert [name for name in exports if name not in uses] == []


def unused_oracles(oracle_source: str, test_sources: list[str]) -> list[str]:
    """Top-level functions of oracle_source that no test source and no other of them names."""
    funcs = [node for node in ast.parse(oracle_source).body if isinstance(node, ast.FunctionDef)]
    uses = set().union(*(named_uses(source) for source in test_sources))
    for fn in funcs:
        uses |= named_uses(ast.get_source_segment(oracle_source, fn)) - {fn.name}
    return [fn.name for fn in funcs if fn.name not in uses]


def test_unused_oracle_detector_flags_an_oracle_nothing_names():
    source = "def a():\n    return b()\n\n\ndef b():\n    pass\n\n\ndef c(x):\n    return c(x)\n"
    assert unused_oracles(source, ["from oracles import a\n# c\n"]) == ["c"]
    assert unused_oracles(source, ["oracles.c(1)\n"]) == ["a"]


def test_every_oracle_is_named_by_a_test_or_another_oracle():
    # A reference program that no test reaches checks nothing.
    tests = [path.read_text() for path in sorted((ROOT / "tests").glob("test_*.py"))]
    assert len(tests) >= 9
    assert unused_oracles((ROOT / "tests" / "oracles.py").read_text(), tests) == []
