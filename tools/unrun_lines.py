"""List the statement lines of src/omctrack that a command never runs.

    python3 tools/unrun_lines.py [-m MODULE | SCRIPT] [ARGS...]

Runs the command in this process, as `python3 -m MODULE ARGS...` or
`python3 SCRIPT ARGS...` would, with src/ first on sys.path and a line
tracer on the calling thread (`sys.settrace`) and on every thread started
after it (`threading.settrace`). The tracer records lines only in the
files of the package beside this script, src/omctrack. When the command
ends, it prints, per module and per function, the statement lines that
never ran, then `total N`, and exits with the command's exit code.

A statement line is the first line of a statement that compiles to code:
docstrings, `global` and `nonlocal` statements and a function's bare
annotations (`x: int`) are not statements here. A line belongs to the
innermost function or class whose body holds it, named by its dotted path
(`Tracker._match`); a module's top-level lines belong to `<module>`.
Child processes are not traced.

    python3 tools/unrun_lines.py -m pytest -q
    python3 tools/unrun_lines.py demos/05_metrics_walkthrough.py
"""

from __future__ import annotations

import ast
import runpy
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "omctrack"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _code_lines(code) -> set[int]:
    """Lines that hold bytecode in code and in every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statement_lines(source: str, filename: str = "<source>") -> dict[int, str]:
    """Each statement line of a module's source, mapped to its scope's name."""
    compiled = _code_lines(compile(source, filename, "exec"))
    found: dict[int, str] = {}

    def visit(body: list[ast.stmt], scope: str, opens_scope: bool = False) -> None:
        for k, node in enumerate(body):
            if node.lineno in compiled and not (opens_scope and k == 0 and _is_docstring(node)):
                found.setdefault(node.lineno, scope)
            if isinstance(node, _SCOPES):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
                visit(node.body, inner, opens_scope=True)
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), scope)
            for part in getattr(node, "handlers", []) + getattr(node, "cases", []):
                visit(part.body, scope)

    visit(ast.parse(source, filename).body, "<module>", opens_scope=True)
    return found


def _tracer(ran: dict[str, set[int]]):
    """A global trace function that records the lines run in PACKAGE's files."""
    root = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(root):
            return None
        ran.setdefault(filename, set())
        return local

    return global_trace


def _run(argv: list[str]) -> int:
    """Run `-m MODULE ARGS...` or `SCRIPT ARGS...` as __main__; its exit code."""
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, str(Path(argv[0]).resolve().parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
        if code is None or isinstance(code, int):
            return code or 0
        print(code, file=sys.stderr)
        return 1
    return 0


def report(ran: dict[str, set[int]]) -> list[str]:
    """Per module and function, the statement lines of PACKAGE not in ran."""
    out, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(path.read_text(encoding="utf-8"), str(path))
        seen = ran.get(str(path), set())
        by_scope: dict[str, list[int]] = {}
        for line, scope in sorted(statements.items()):
            if line not in seen:
                by_scope.setdefault(scope, []).append(line)
        if by_scope:
            out.append(f"{path.name}")
            for scope, lines in sorted(by_scope.items(), key=lambda item: item[1][0]):
                out.append(f"  {scope}: {' '.join(map(str, lines))}")
                total += len(lines)
    out.append(f"total {total}")
    return out


def main(argv: list[str]) -> int:
    if not argv or argv == ["-m"]:
        print("usage: python3 tools/unrun_lines.py [-m MODULE | SCRIPT] [ARGS...]",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ran: dict[str, set[int]] = {}
    trace = _tracer(ran)
    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = _run(argv)
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    sys.stdout.flush()
    print("\n".join(report(ran)))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
