import importlib.util
from pathlib import Path

from conic import from_normals, render_svg_2d

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_examples.py"


def load_run_examples():
    spec = importlib.util.spec_from_file_location("run_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_examples_writes_reports_and_maps(tmp_path, capsys):
    run_examples = load_run_examples()
    assert run_examples.main(["--out", str(tmp_path), "--skip-frobenius"]) == 0
    capsys.readouterr()
    assert len(list(tmp_path.glob("*.json"))) == 4
    assert len(list(tmp_path.glob("*.svg"))) == 3
    for name, (rank, normals, window) in run_examples.EXAMPLES.items():
        assert (tmp_path / f"{name}.json").exists()
        if window is not None:
            want = render_svg_2d(from_normals(rank, normals), window)
            assert (tmp_path / f"{name}.svg").read_text() == want


def test_src_lines_counts_code_lines_only(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "src_lines", SCRIPT.parent / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    (tmp_path / "a.py").write_text('''"""Module docstring,
two lines."""

# a comment

def f(x):
    """One-line docstring."""
    y = (x +  # a trailing comment keeps its line
         1)
    s = """a string that is
no docstring"""
    return y, s


class C:
    """Class docstring."""

    n = 1
''')
    (tmp_path / "b.py").write_text("x = 1\n\n\n")
    # def, two lines of y, two of s, return, class, n = 1
    assert src_lines.count(tmp_path) == {"a.py": 8, "b.py": 1}
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["9", "total"]
