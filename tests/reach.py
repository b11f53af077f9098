"""Reach audit: the functions of src/roughwz that no acceptance criterion and no CLI call runs.

Run it from anywhere in a checkout:

    python tests/reach.py

It runs the eleven criteria of tests/test_acceptance.py and a few calls of
roughwz's main (a list, a small run that writes reports, and refused
input), with a trace function (sys.settrace) that records each call of a
function defined under src/roughwz.  It prints every function, method and
nested function of those files, found with ast, that was never called.
A function only unit tests reach is a candidate for deletion.

pytest does not collect this file (its name does not start with test_), and
it needs nothing beyond the standard library and the program itself.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "roughwz"


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> 'module.qualname' of every def under PACKAGE."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A code object starts at its first decorator.
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out[(str(path), first)] = f"{prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), f"{path.stem}.")
    return out


def main_calls(tmp: Path) -> list[list[str]]:
    """The CLI calls the audit makes: a list, a small run with reports, refused input."""
    bad_config = tmp / "bad.json"
    bad_config.write_text('{"experiment": "stopping", "H": 0.9}')
    return [
        ["--list"],
        ["--experiment", "stopping", "--seeds", "2", "--grid-n", "64", "--delta-ladder", "4,2",
         "--out", str(tmp / "out")],
        ["--experiment", "stopping", "--delta-ladder", "a,b"],
        ["--experiment", "stopping", "--bogus"],
        ["--config", str(bad_config)],
        ["--config", str(tmp / "missing.json")],
    ]


def run_workload(tmp: Path) -> int:
    """Run the criteria and the main calls; return the number of main calls."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_acceptance
    from roughwz.expcli import main

    criteria = sorted(name for name in vars(test_acceptance) if name.startswith("test_criterion_"))
    for name in criteria:
        fn = getattr(test_acceptance, name)
        t0 = time.perf_counter()
        if "tmp_path" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            fn(tmp_path=Path(tempfile.mkdtemp(dir=tmp)))
        else:
            fn()
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    calls = main_calls(tmp)
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                main(argv)
            except SystemExit:
                pass
    return len(calls)


def main() -> int:
    functions = defined_functions()
    files = {file for file, _ in functions}
    reached = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in files:
            reached.add((code.co_filename, code.co_firstlineno))

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(trace)
        try:
            n_calls = run_workload(Path(tmp))
        finally:
            sys.settrace(None)
    missed = sorted((Path(file).name, line, name) for (file, line), name in functions.items()
                    if (file, line) not in reached)
    print(f"{len(missed)} of {len(functions)} functions under src/roughwz are not reached by "
          f"the 11 criteria and {n_calls} main calls "
          f"({time.perf_counter() - t0:.0f} s):")
    for file, line, name in missed:
        print(f"  {name}  ({file}:{line})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
