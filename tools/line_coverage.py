"""List the lines of ``src/graphtransducer/`` that no test runs.

No coverage package is needed: pytest runs in this process under a
standard-library ``sys.settrace`` line tracer, which records the lines
each module of the package runs.  A line is executable when a statement
starts on it; a bare string statement (a docstring) does not count, since
it compiles to no code.  Only this process's main thread is traced, so
lines that tests run in a subprocess or another thread count as not run.

    python3 tools/line_coverage.py [PYTEST ARGS...]

runs pytest with the given arguments (by default the ``tests`` directory,
quietly) and then prints one row per module, ``name.py: N of M lines not
run: 12, 15-17``, and a total.  It exits with pytest's status.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphtransducer"


def executable_lines(source: str) -> set[int]:
    """The lines of ``source`` on which a statement other than a bare
    string starts."""
    return {
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.stmt)
        and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                 and isinstance(node.value.value, str))
    }


def trace_lines(package: Path, run):
    """Call ``run()`` under a line tracer; return its result and, for each
    ``.py`` file of ``package``, the set of its lines that ran.  Code of a
    module counts only when it is compiled from that file's path, so the
    modules must be imported after this starts."""
    hits = {str(path): set() for path in sorted(package.glob("*.py"))}

    def on_call(frame, event, arg):
        ran = hits.get(frame.f_code.co_filename)
        if ran is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, {Path(path): ran for path, ran in hits.items()}


def _spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as ``3, 7-9``."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(hits: dict[Path, set[int]]) -> list[str]:
    """One row per module of ``hits`` with its executable lines that did
    not run, then the total."""
    rows, missed, total = [], 0, 0
    for path, ran in hits.items():
        lines = executable_lines(path.read_text(encoding="utf-8"))
        unrun = sorted(lines - ran)
        missed += len(unrun)
        total += len(lines)
        row = f"{path.name}: {len(unrun)} of {len(lines)} lines not run"
        rows.append(f"{row}: {_spans(unrun)}" if unrun else row)
    rows.append(f"total: {missed} of {total} lines not run")
    return rows


def main(argv: list[str]) -> int:
    import pytest

    if "graphtransducer" in sys.modules:
        raise SystemExit("graphtransducer is already imported, so its module-level lines cannot be traced")
    sys.path.insert(0, str(PACKAGE.parent))
    status, hits = trace_lines(PACKAGE, lambda: pytest.main(argv or ["-q", str(ROOT / "tests")]))
    print("\n".join(report(hits)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
