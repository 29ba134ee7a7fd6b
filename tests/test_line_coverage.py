import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_coverage.py"
spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
line_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_coverage)

FIXTURE = '''"""A module docstring."""

import math


def used(x):
    """A docstring, which compiles to no code."""
    if x > 0:
        return math.sqrt(
            x,
        )
    return -x


def unused(x):
    y = x + 1
    z = y * 2
    return z
'''


def run_fixture(package: Path):
    spec = importlib.util.spec_from_file_location("line_coverage_fixture", package / "fixture.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.used(4.0)


def test_executable_lines_are_statement_starts_without_docstrings():
    # import, def, if, return (its first line only), return, def, three statements
    assert line_coverage.executable_lines(FIXTURE) == {3, 6, 8, 9, 12, 15, 16, 17, 18}


def test_reports_the_lines_no_call_ran(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "other.py").write_text("x = 1\n")
    result, hits = line_coverage.trace_lines(tmp_path, lambda: run_fixture(tmp_path))
    assert result == 2.0
    assert line_coverage.report(hits) == [
        "fixture.py: 4 of 9 lines not run: 12, 16-18",
        "other.py: 1 of 1 lines not run: 1",
        "total: 5 of 10 lines not run",
    ]
