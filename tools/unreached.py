"""List the statements of src/rrdof that the tier-1 tests never run.

Runs the tier-1 suite (pytest on tests/, in this process) under
``sys.settrace`` and ``threading.settrace``, tracing only frames whose code
lives in src/rrdof, and prints one ``path:line: source`` line per executable
statement that no test ran, then a count on stderr. A statement whose first
line carries ``# pragma: no cover`` is skipped with its whole body, and so is
the ``if __name__ == "__main__":`` guard. The list is information, not a
gate: the script always exits 0, also when a test fails.

    python tools/unreached.py

A statement is executable when the compiler gives it a line of its own in
some code object of the module. rrdof is imported from src/ of this checkout,
after tracing starts, so module-level lines count as run on import. Takes no
options; the standard library and pytest only. Tier-1 took 34 s under tracing
on 2 vCPUs, about its plain run's time.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "rrdof"


def _code_lines(code) -> set[int]:
    """Lines that start an instruction in `code` or any code object nested in
    it, less each nested function's first line (the `def` or decorator line,
    which runs in the enclosing scope)."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const) - {const.co_firstlineno}
    return lines


def _skipped(tree: ast.Module, source: list[str]) -> set[int]:
    """Lines of statements marked ``# pragma: no cover`` on their first line,
    and of the ``__main__`` guard."""
    skipped = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        first = source[node.lineno - 1]
        if first.startswith('if __name__ == "__main__":') or "# pragma: no cover" in first:
            skipped.update(range(node.lineno, node.end_lineno + 1))
    return skipped


def executable(path: Path) -> dict[int, str]:
    """Executable, not skipped lines of the module at `path`, with their source."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    lines = _code_lines(compile(text, str(path), "exec")) - _skipped(ast.parse(text), source)
    return {line: source[line - 1].strip() for line in sorted(lines) if line > 0}


def run_traced() -> set[tuple[str, int]]:
    """Run tier-1 under the tracer and return the (file, line) pairs run in src/rrdof."""
    hit: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}  # filename -> whether it is in src/rrdof

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(os.path.abspath(name)).parent == PACKAGE
        if not ours[name]:
            return None
        hit.add((name, frame.f_lineno))
        return local

    import pytest  # the tier-1 runner; imported before tracing starts

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))  # PYTHONPATH=src, as tier-1 runs, also for subprocesses
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {(os.path.abspath(name), line) for name, line in hit}


def main() -> int:
    with contextlib.redirect_stdout(sys.stderr):  # pytest's report; stdout holds only the list
        hit = run_traced()
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in executable(path).items():
            if (str(path), line) not in hit:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    for entry in missed:
        print(entry)
    print(f"{len(missed)} statements of src/rrdof unreached by tier-1", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
