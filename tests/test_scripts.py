import hashlib
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


# sha256 of every file ``run_examples.py`` writes with default options
EXAMPLE_BYTES = {
    "cyclic.json": "6e7fbb2bb789beb9d3cb93cf108a7b8d7d026ca0bd352feb1e5f8f6acc7bb31a",
    "cyclic.svg": "f99b59af2816c63d48c22d3a106ab779d61a872c307a40f394ee65da7b8f81d0",
    "orthant.json": "f09bfd046feea793456543469354006d18a9e75cd0f7452b977b67331c387d72",
    "orthant.svg": "a248d3ec7d463e2bf15616dbdf2dff11960d372d0f85a752702358d433b9466a",
    "quadric.json": "af47e54792f8425b18092db97a4828da3151dfa27a66abd8217c192b33411e06",
    "quadric.svg": "1d9a83db0d1cee017679f3eddca7a0f17f1e1490efcd4df7c22a1941cbd3e109",
    "square.json": "f1c3280b5d696a667394cdd6724cf414533adc90d8fa12398c072469cf50cda3",
}


def test_run_examples_bytes_are_pinned(tmp_path, capsys):
    assert load_run_examples().main(["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == EXAMPLE_BYTES


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
