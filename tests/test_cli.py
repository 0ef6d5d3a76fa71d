import json

import pytest

from conic.cli_io import (
    AnalyzeOptions,
    analyze,
    build_cone,
    main,
    parse_input,
    serialize_report,
)
from conic.errors import InputError

from box_census import box_census

SQUARE = '{"rank":3,"normals":[[1,0,0],[0,1,0],[-1,0,1],[0,-1,1]]}'
QUADRIC = '{"rank":2,"dual_rays":[[1,1],[-1,1]]}'
CYCLIC = '{"rank":2,"normals":[[0,1],[3,-2]]}'
HEXAGON = ('{"rank":3,"primal_rays":[[1,0,1],[0,1,1],[-1,1,1],'
           '[-1,0,1],[0,-1,1],[1,-1,1]]}')


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(SQUARE)
    return str(p)


@pytest.fixture
def quadric_file(tmp_path):
    p = tmp_path / "quadric.json"
    p.write_text(QUADRIC)
    return str(p)


def test_parse_input_accepts_each_presentation():
    assert parse_input(QUADRIC).dual_rays == ((1, 1), (-1, 1))
    assert parse_input(SQUARE).normals[0] == (1, 0, 0)
    inp = parse_input(
        '{"rank":3,"primal_rays":[[0,0,1],[1,0,1],[0,1,1],[1,1,1]]}')
    assert len(inp.primal_rays) == 4
    assert build_cone(inp).rank == 3


def test_parse_input_rejections():
    cases = [
        "not json",
        "[1,2]",
        '{"rank":2}',
        '{"rank":0,"normals":[[1]]}',
        '{"rank":2,"normals":[[0,1]],"dual_rays":[[0,1]]}',
        '{"rank":2,"normals":[[0,1,3]]}',
        '{"rank":2,"normals":[[0,1.5],[1,0]]}',
        '{"rank":2,"normals":[[0,1],[1,0]],"labels":["a"]}',
        '{"rank":2,"normals":[[0,1],[1,0]],"extra":1}',
        '{"rank":2,"normals":[]}',
    ]
    for text in cases:
        with pytest.raises(InputError):
            parse_input(text)


def test_analyze_report_square():
    spec = build_cone(parse_input(SQUARE))
    report = analyze(spec)
    assert report["schema_version"] == 2
    assert "grid_class_count" not in report
    assert report["class_count"] == len(box_census(spec)) == 3
    assert report["global_dimension"] == 3
    assert report["nccr"]["verdict"] == "NotNCCR"
    assert report["smith"]["all_trivial"]
    assert report["warnings"] == []
    labels = [row["label"] for row in report["classes"]]
    assert labels == ["A1", "A0", "A2"]  # lex order of representatives
    pdims = sorted(row["pdim"] for row in report["classes"])
    assert pdims == [2, 2, 3]


def test_analyze_optional_blocks():
    spec = build_cone(parse_input(QUADRIC))
    report = analyze(spec, AnalyzeOptions(
        acyclicity_radius=1, frobenius_q=2, frobenius_minimal=True,
        dmodule_prime=3, supports=(("A0", "A1"),)))
    assert report["acyclicity"]["all_passed"]
    assert len(report["acyclicity"]["pairs"]) == 4
    assert report["frobenius"]["q"]["counts"] == {"A0": 2, "A1": 2}
    assert report["frobenius"]["minimal_complete_q"] == 2
    assert report["frobenius"]["dmodule"]["bounds"] == [2, 3]
    assert report["partial_supports"][0]["verdict"] == "NCCR"


def test_serialization_is_deterministic():
    spec = build_cone(parse_input(CYCLIC))
    a = serialize_report(analyze(spec))
    b = serialize_report(analyze(spec))
    assert a == b
    parsed = json.loads(a)
    assert parsed["content_hash"] == analyze(spec)["content_hash"]


def test_main_analyze_json(square_file, capsys):
    assert main(["analyze", "--input", square_file, "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["global_dimension"] == 3
    assert report["cone"]["simplicial"] is False


def test_main_text_output(quadric_file, capsys):
    assert main(["analyze", "--input", quadric_file]) == 0
    out = capsys.readouterr().out
    assert "classes: 2" in out
    assert "NCCR" in out


def test_main_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(QUADRIC))
    assert main(["chambers"]) == 0
    out = capsys.readouterr().out
    assert "A0" in out and "A1" in out


def test_main_chambers_hexagon(tmp_path, capsys):
    # a valid cone that the retired grid cross-check refused with exit 2
    path = tmp_path / "hexagon.json"
    path.write_text(HEXAGON)
    assert main(["chambers", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 23
    assert lines[0].startswith("A")
    assert main(["chambers", "--input", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class_count"] == 23
    assert "grid_class_count" not in report


def test_main_subcommands_run(square_file, capsys):
    assert main(["cells", "A1", "--input", square_file]) == 0
    assert "codim" in capsys.readouterr().out
    assert main(["complex", "A0", "--input", square_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [len(row) for row in report["terms"]] == [1, 4, 4, 1]
    assert main(["resolution", "--support", "A0,A1", "A0",
                 "--input", square_file]) == 0
    out = capsys.readouterr().out
    assert "length 3" in out and "spliced" in out
    assert main(["acyclicity", "--window", "1",
                 "--input", square_file]) == 0
    assert "passed" in capsys.readouterr().out
    assert main(["nccr", "--support", "A0,A2",
                 "--input", square_file]) == 0
    assert "NCCR" in capsys.readouterr().out
    assert main(["frobenius", "--q", "2", "--input", square_file]) == 0
    assert "A0:6" in capsys.readouterr().out


def test_main_class_argument_forms(square_file, capsys):
    assert main(["cells", "0,0,0,-1", "--input", square_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["label"] == "A1"
    assert main(["cells", "A7", "--input", square_file]) == 1
    assert main(["cells", "9,9", "--input", square_file]) == 1


def test_main_exit_codes(square_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", "--input", str(bad)]) == 1
    assert main(["analyze", "--input", str(tmp_path / "missing.json")]) == 1
    assert main(["svg", "--window=-1,1,-1,1", "--input", square_file]) == 1
    assert main(["resolution", "--support", "A0", "A0",
                 "--input", square_file]) == 1
    err = capsys.readouterr().err
    assert "outside support" in err
    assert main(["frobenius", "--input", square_file]) == 1
    assert main(["nosuchcommand"]) == 1


def test_main_svg(tmp_path, quadric_file, capsys):
    out_file = tmp_path / "img.svg"
    assert main(["svg", "--window=-2,2,-2,2", "--input", quadric_file,
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    doc = out_file.read_text()
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    for bad in ("a,1,-1,1", "1/0,1,-1,1", "-1,1,-1", "1,-1,-1,1"):
        assert main(["svg", f"--window={bad}", "--input", quadric_file]) == 1
    assert "window" in capsys.readouterr().err
