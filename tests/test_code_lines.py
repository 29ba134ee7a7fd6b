import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as code


# a comment-only line
def join(parts):
    """A one-line docstring."""
    text = os.sep.join(
        parts,
    )
    note = """a string that is
    not a docstring"""
    return text + note


class Empty:
    """Only a docstring."""
'''


def test_counts_only_lines_that_hold_code():
    # import; def; the three lines of the call; the two lines of the
    # string; return; class
    assert code_lines.code_lines(FIXTURE) == 9


def test_totals_each_module_of_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     9  a.py", "     1  b.py", "    10  total"]
