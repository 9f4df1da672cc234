import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unrun_lines.py"
spec = importlib.util.spec_from_file_location("unrun_lines", TOOL)
unrun_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun_lines)

# Statement lines are marked "# <scope>"; every other line is blank, a
# comment, a docstring, a decorator, a continuation, a clause header, or a
# statement that compiles to no code.
SAMPLE = '''"""Module docstring."""
import threading  # <module>

LIMIT: int = 3  # <module>


def deco(f):  # <module>
    """Docstring."""
    def inner(*args):  # deco
        return f(*args)  # deco.inner
    return inner  # deco


class Thing:  # <module>
    """Class docstring."""
    size: int = 0  # Thing

    @deco
    def run(self, x):  # Thing
        global LIMIT
        note: str
        try:  # Thing.run
            y = (x +  # Thing.run
                 1)
        except ValueError:
            raise  # Thing.run
        if y > LIMIT:  # Thing.run
            return "big"  # Thing.run
        elif y < 0:  # Thing.run
            return "negative"  # Thing.run
        return "small"  # Thing.run


def spawn(x):  # <module>
    worker = threading.Thread(target=Thing().run, args=(x,))  # spawn
    worker.start()  # spawn
    worker.join()  # spawn
'''


def marked(sample):
    return {n: line.rsplit("# ", 1)[1] for n, line in enumerate(sample.splitlines(), 1)
            if "# " in line}


def test_statement_lines_of_the_sample():
    want = marked(SAMPLE)
    assert len(want) == 21
    assert unrun_lines.statement_lines(SAMPLE) == want


def test_reports_the_lines_a_script_never_runs(tmp_path, monkeypatch, capsys):
    package = tmp_path / "package"
    package.mkdir()
    (package / "unrun_sample.py").write_text(SAMPLE)
    script = tmp_path / "script.py"
    # Thing.run runs on a helper thread only, once, with a small x.
    script.write_text(f"import sys\nsys.path.insert(0, {str(package)!r})\n"
                      "import unrun_sample\nunrun_sample.spawn(1)\nraise SystemExit(3)\n")
    monkeypatch.setattr(unrun_lines, "PACKAGE", package)
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        assert unrun_lines.main([str(script)]) == 3
    finally:
        sys.modules.pop("unrun_sample", None)
    assert capsys.readouterr().out == (
        "unrun_sample.py\n"
        "  Thing.run: 26 28 30\n"
        "total 3\n"
    )
