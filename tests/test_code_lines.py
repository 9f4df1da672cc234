import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# Code lines are marked "# code"; every other line is blank, a comment or a
# docstring.
SAMPLE = '''"""Module docstring,
over two lines."""

import os  # code

# A comment line.
HELP = """not a docstring:   # code
an assignment's string."""   # code


class Thing:  # code
    """Class docstring."""

    def method(self, x):  # code
        """Method docstring.

        With a body.
        """
        return (x +  # code
                # a comment inside the brackets
                1)  # code


async def fetch():  # code
    """Coroutine docstring."""
    "an expression string after the docstring"  # code
'''


def test_sample_counts_only_code_lines():
    want = sum("# code" in line for line in SAMPLE.splitlines())
    assert want == 9
    assert code_lines.code_lines(SAMPLE) == want


def test_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 9\ntotal 10\n"
