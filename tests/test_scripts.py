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
