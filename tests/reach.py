"""Reach audit: the code of src/roughwz that no acceptance criterion and no CLI call runs.

Run it from anywhere in a checkout:

    python tests/reach.py

It runs the eleven criteria of tests/test_acceptance.py and a few calls of
`python -m roughwz` (a list, a small run of each experiment, one of which
writes reports, and refused input), with a trace function (sys.settrace)
that records each call of a function defined under src/roughwz and each
line it runs there; the calls the criteria make and those the main calls
make are recorded apart.  It prints three listings, found with ast:

- every function, method and nested function of those files that was
  never called;
- every statement that never ran, except raise statements and the
  `if __name__ == "__main__":` guard.  A statement inside one that never
  ran is counted but not printed;
- every function that the criteria call and no main call does.

Code that only unit tests reach is a candidate for deletion; code that
only the criteria reach is one for review, since no experiment needs it.

pytest does not collect this file (its name does not start with test_), and
it needs nothing beyond the standard library and the program itself.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
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


def _left_out(node: ast.stmt) -> bool:
    """A raise, the main guard or a docstring: no statement the listing asks about."""
    if isinstance(node, ast.If):
        return ast.unparse(node.test) == "__name__ == '__main__'"
    if isinstance(node, ast.Expr):
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    return isinstance(node, ast.Raise)


class Statement:
    """One statement: its lines, the lines whose trace events show it ran, and its children."""

    def __init__(self, node: ast.stmt):
        self.first, self.last = node.lineno, node.end_lineno
        body = getattr(node, "body", None)
        if body:  # a compound statement runs its header, from its first decorator on
            first = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
            self.probe = range(first, max(body[0].lineno, first + 1))
        else:
            self.probe = range(self.first, self.last + 1)
        self.children = statements(node)

    def ran(self, file_lines: set[int]) -> bool:
        return any(k in file_lines for k in self.probe) or any(
            child.ran(file_lines) for child in self.children
        )

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def unreached(self, file_lines: set[int]) -> tuple[int, list["Statement"]]:
        """(count, outermost) of the statements here and below that never ran."""
        if not self.ran(file_lines):
            return self.size(), [self]
        count, outermost = 0, []
        for child in self.children:
            n, top = child.unreached(file_lines)
            count, outermost = count + n, outermost + top
        return count, outermost


def statements(node: ast.AST) -> list[Statement]:
    """The statements directly below node, without raises, the main guard and docstrings."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            if not _left_out(child):
                out.append(Statement(child))
        elif not isinstance(child, ast.expr):  # except handlers hold statements too
            out += statements(child)
    return out


def main_calls(tmp: Path) -> list[list[str]]:
    """The CLI calls the audit makes: a list, a small run of each experiment, refused input."""
    bad_config = tmp / "bad.json"
    bad_config.write_text('{"experiment": "stopping", "H": 0.9}')
    small = ["--grid-n", "32", "--delta-ladder", "4,2"]
    return [
        ["--list"],
        ["--experiment", "stopping", "--seeds", "2", "--grid-n", "64", "--delta-ladder", "4,2",
         "--out", str(tmp / "out")],
        ["--experiment", "noise", "--seeds", "30", *small],
        ["--experiment", "solution", "--seeds", "2", *small],
        ["--experiment", "stopping", "--delta-ladder", "a,b"],
        ["--experiment", "stopping", "--bogus"],
        ["--config", str(bad_config)],
        ["--config", str(tmp / "missing.json")],
    ]


def run_criteria(tmp: Path) -> int:
    """Run the acceptance criteria; return their number."""
    import test_acceptance

    criteria = sorted(name for name in vars(test_acceptance) if name.startswith("test_criterion_"))
    for name in criteria:
        fn = getattr(test_acceptance, name)
        t0 = time.perf_counter()
        if "tmp_path" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            fn(tmp_path=Path(tempfile.mkdtemp(dir=tmp)))
        else:
            fn()
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return len(criteria)


def run_main_calls(tmp: Path) -> int:
    """Run `python -m roughwz` on each of main_calls in this process; return their number."""
    calls = main_calls(tmp)
    argv0 = sys.argv
    for argv in calls:
        sys.argv = ["roughwz", *argv]  # as `python -m roughwz ARGV` runs
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                runpy.run_module("roughwz", run_name="__main__")
            except SystemExit:
                pass
    sys.argv = argv0
    return len(calls)


def main() -> int:
    functions = defined_functions()
    files = {str(path) for path in PACKAGE.glob("*.py")}
    reached_by = {}
    lines = {file: set() for file in files}

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        if event == "call":
            reached.add((code.co_filename, code.co_firstlineno))
        else:
            lines[code.co_filename].add(frame.f_lineno)
        return trace

    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for phase, run in (("criteria", run_criteria), ("main calls", run_main_calls)):
            reached = reached_by[phase] = set()  # the set trace adds to
            sys.settrace(trace)
            try:
                counts[phase] = run(Path(tmp))
            finally:
                sys.settrace(None)

    def named(keys):
        return sorted((Path(file).name, line, functions[file, line]) for file, line in keys)

    missed = named(set(functions) - reached_by["criteria"] - reached_by["main calls"])
    print(f"{len(missed)} of {len(functions)} functions under src/roughwz are not reached by "
          f"the {counts['criteria']} criteria and {counts['main calls']} main calls "
          f"({time.perf_counter() - t0:.0f} s):")
    for file, line, name in missed:
        print(f"  {name}  ({file}:{line})")

    total, listing = 0, []
    for file in sorted(files):
        text = Path(file).read_text()
        source = text.splitlines()
        for stmt in statements(ast.parse(text)):
            n, outermost = stmt.unreached(lines[file])
            total += n
            listing += [(Path(file).name, s.first, s.last, source[s.first - 1].strip())
                        for s in outermost]
    print(f"{total} statements under src/roughwz never ran, raise statements and the "
          f"__main__ guard left out; outermost ones:")
    for name, first, last, line in listing:
        span = f"{first}" if first == last else f"{first}-{last}"
        print(f"  {name}:{span}  {line}")

    criteria_only = named((reached_by["criteria"] - reached_by["main calls"]) & set(functions))
    print(f"{len(criteria_only)} functions under src/roughwz are reached by the criteria "
          f"and by no main call:")
    for file, line, name in criteria_only:
        print(f"  {name}  ({file}:{line})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
