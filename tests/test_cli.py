import hashlib
import json
import shlex
import time
from pathlib import Path

import pytest

from conic import chambers, cli_io, complexes, frobenius, render_svg_2d
from conic.cone import content_hash
from conic.cli_io import (
    AnalyzeOptions,
    analyze,
    build_cone,
    main,
    parse_input,
    serialize_report,
)
from conic.errors import InputError, InternalInvariantError

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


def test_analyze_optional_blocks(monkeypatch):
    # --minimal-q and --dmodule share one minimal-q search
    search, searches = frobenius.minimal_complete_q, []

    def counted(spec):
        searches.append(spec)
        return search(spec)

    monkeypatch.setattr(frobenius, "minimal_complete_q", counted)
    monkeypatch.setattr(cli_io, "minimal_complete_q", counted)
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
    assert len(searches) == 1


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


def test_main_text_output_optional_lines(square_file, capsys):
    assert main(["analyze", "--window", "1", "--q", "2", "--dmodule", "2",
                 "--input", square_file]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "acyclicity over radius 1: passed (9 ordered pairs)",
        "frobenius q=2: A0:6 A1:1 A2:1",
        "dmodule p=2: e=1, global dimension in [3, 4]"]
    assert main(["nccr", "--input", square_file]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "verdict: NotNCCR", "witness: A1"]


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


def test_cells_json_witnesses_of_the_square(square_file, capsys):
    # one barycenter per cell closure, in (codim, omega) order
    want = {
        "A0": [([0, 1, 2, 3], ["-1/2", "-1/2", -1]),
               ([0, 1, 2], ["-1/3", "-2/3", "-2/3"]),
               ([0, 1, 3], ["-2/3", "-1/3", "-2/3"]),
               ([0, 2, 3], ["-1/3", 0, "-2/3"]),
               ([1, 2, 3], [0, "-1/3", "-2/3"]),
               ([0, 1], ["-1/2", "-1/2", "-1/2"]),
               ([0, 3], ["-1/2", 0, "-1/2"]),
               ([1, 2], [0, "-1/2", "-1/2"]),
               ([2, 3], [0, 0, "-1/2"]),
               ([], [0, 0, 0])],
        "A1": [([0, 1, 2, 3], ["-3/4", "-1/4", "-3/2"]),
               ([0, 1, 2], ["-2/3", "-1/3", "-4/3"]),
               ([0, 2, 3], ["-2/3", 0, "-4/3"]),
               ([0, 2], ["-1/2", 0, -1])],
    }
    for label, rows in want.items():
        assert main(["cells", label, "--input", square_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [(cell["omega"], cell["witness"])
                for cell in report["cells"]] == rows


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
    # refused before the cone is read, so a missing file is not named
    assert main(["frobenius", "--input", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err == (
        "error: frobenius needs at least one of --q, --minimal, --dmodule\n" * 2)
    assert main(["nosuchcommand"]) == 1


def test_invariant_error_names_the_cone(square_file, capsys, monkeypatch):
    def broken(mats):
        raise InternalInvariantError("differential does not square to zero")

    monkeypatch.setattr(complexes, "_check_d2", broken)
    spec = build_cone(parse_input(SQUARE))
    assert main(["complex", "A0", "--input", square_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal invariant violated: differential does not "
                   f"square to zero (cone {content_hash(spec)})\n")


def test_support_not_closed_names_each_cell(tmp_path, capsys):
    # 1/5(1,2): two different outside cells share the open conic (1, 2)
    path = tmp_path / "c5.json"
    path.write_text('{"rank":2,"normals":[[0,1],[5,-2]]}')
    assert main(["resolution", "--support", "A0,A1", "A1",
                 "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "error: support is not closed under one substitution round"
    assert lines[1:] == [
        "  outside support: cell of chamber (0, 2), omega (0,), open conic (0, 3)",
        "  outside support: cell of chamber (0, 2), omega (1,), open conic (1, 2)",
        "  outside support: cell of chamber (1, 1), omega (0,), open conic (1, 2)",
        "  outside support: cell of chamber (1, 2), omega (), open conic (2, 3)",
    ]
    assert len(set(lines)) == len(lines)


# sha256 of `conic analyze --json` on each test cone, given by its normals,
# and on cones A and B of ROADMAP.md, recorded before the chamber checks
# moved into one gate in cells.py
CONE_A = (4, [(-1, -2, 4, 3), (-1, 0, 0, 1), (0, -1, -2, 1), (0, -1, 1, 1),
              (0, 1, 0, 1), (1, 0, -2, 1), (1, 0, 0, 1), (1, 2, 2, 3)])
CONE_B = (4, [(-4, -2, 1, 1), (-1, 3, 2, 2), (0, 0, -1, 1), (0, 1, 0, 1),
              (1, -2, 1, 1), (1, 0, 0, 1), (1, 0, 1, 1), (2, -1, -1, 2)])
PINNED_REPORTS = {
    "quadric": "c939731820a1be6244b76f764945acad738663a0bc17466e5d2dc778018cc372",
    "square": "302ee1cd9bbac4c5e930d1f8ade0bd5b78d43ef70b85d6713876d8399d25e0b8",
    "cyclic": "85c3a5f12bc6ed0f286dc25b12b813b64912daaf4378ff49c51c5ed2e1deb893",
    "orthant2": "60bf27eacb6b46495da3438b8e4901196d4315e516c25617de1da27e97d33c6f",
    "orthant3": "9e5765ea8db2b5f200b88f9b2c36936461e6b6d4a11e8abdb273c70ccd6a11d0",
    "pentagon": "8199bfd22df45146fcd31fbe8957afe6f1a114115c72086701e9c1aadaf97b87",
    "hexagon": "223c35ea3fa357c1796f0f60545fb2be8d98aa9b9e2f8b93b597288893b736b3",
    "octahedron": "fa4ed5fadb49094dc3c792c42a2e4f351ecb9283a58d41afafe4374a17d804ff",
    "cone_a": "8134993c49b7b68506aa48fd49e70bd0845c8e02d77ad08c731fdb6553347b75",
    "cone_b": "4a3f85a5599e20bef109d98e86e3614aed3821e2c0ccc6c2deb46efd5d22eb9a",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_analyze_report_bytes_pinned(name, request, tmp_path, capsys):
    if name in ("cone_a", "cone_b"):
        rank, normals = CONE_A if name == "cone_a" else CONE_B
    else:
        spec = request.getfixturevalue(name)
        rank, normals = spec.rank, spec.normals
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": rank, "normals": normals}))
    assert main(["analyze", "--json", "--input", str(path)]) == 0
    assert _sha(capsys.readouterr().out) == PINNED_REPORTS[name]


# sha256 of windowed reports: `conic analyze --window 2 --json` and
# `conic acyclicity --json` with default windows, recorded before passed
# windows were kept per cell pattern and offset; c37 is 1/37(1,10)
C37 = (2, [(0, 1), (37, -10)])
PINNED_WINDOWED = [
    ("pentagon", "analyze --window 2 --json",
     "bb77dbd481fc57e0e80fc08c16cc2a044b6c992c11f049a61e818a31210b0b13"),
    ("hexagon", "analyze --window 2 --json",
     "978486dd81c19d0833fb2525bdbe400f878a5a331d61045021d0f4338d265b55"),
    ("c37", "analyze --window 2 --json",
     "1833962a5b0c7f3c1f52008ebdbb56984bcd3ef0a800df74c45b910f2a68cb44"),
    pytest.param(
        "octahedron", "analyze --window 2 --json",
        "8b122ad12e1d15ee8c429effb7667637cfc7f1be073f4f634d468937a7fc3c77",
        marks=pytest.mark.slow),
    ("c37", "acyclicity --json",
     "223b19b5190a5242e59cb48538d274560e41387bb26fd4d05315fba84072bcad"),
    ("square", "acyclicity --json",
     "5428edf8a0b46ae0703e4e60b1cf23f1b2d3163f874a64fb103c39519f168eca"),
]


@pytest.mark.parametrize("name,args,digest", PINNED_WINDOWED)
def test_windowed_report_bytes_pinned(name, args, digest, request, tmp_path,
                                      capsys):
    if name == "c37":
        rank, normals = C37
    else:
        spec = request.getfixturevalue(name)
        rank, normals = spec.rank, spec.normals
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": rank, "normals": normals}))
    assert main(shlex.split(args) + ["--input", str(path)]) == 0
    assert _sha(capsys.readouterr().out) == digest


# sha256 of partial-support reports on the square and on a trapezoid,
# recorded before the spliced lifts were solved on dense matrices
TRAPEZOID = '{"rank":3,"primal_rays":[[0,0,1],[2,0,1],[1,1,1],[0,1,1]]}'
PINNED_PARTIAL = [
    (SQUARE, "analyze --json --support A0,A1 --support A0,A2",
     "7bb444c523ce600160de735ea901b083ceac102348be232b57ee06f7cda055aa"),
    (SQUARE, "nccr --json --support A0,A1",
     "dab0f63ea70a0c318b0172773ac3ba511d0750e527041fb64f049258e6e12562"),
    (SQUARE, "resolution --json --support A0,A1 A0",
     "22676e32a9f9c826522cadc77f6be8e95b35ff96ff3abc33b738b818dc4574e1"),
    (SQUARE, "resolution --json --support A0,A1 A1",
     "31082a8d4fe2546c14b69ab96473b7f1a31a2b1a79f1c845a02060677cb4bd0d"),
    (TRAPEZOID,
     "analyze --json --support A0,A1 --support A0,A2 --support A0,A1,A2",
     "ac0e60b299d0c470d6d91c11c8a3b2f2c7cc31e37ebf71e985d8d044c8cc7c00"),
]


@pytest.mark.parametrize("cone,args,digest", PINNED_PARTIAL)
def test_partial_support_report_bytes_pinned(cone, args, digest, tmp_path,
                                             capsys):
    path = tmp_path / "cone.json"
    path.write_text(cone)
    assert main(shlex.split(args) + ["--input", str(path)]) == 0
    assert _sha(capsys.readouterr().out) == digest


def test_unclosed_support_stderr_pinned(square_file, capsys):
    # the outside cells belong to translated summands of the free complex
    assert main(["resolution", "--support", "A0,A0", "A0",
                 "--input", square_file]) == 1
    assert _sha(capsys.readouterr().err) == (
        "01f2128fe99fbde0de9e1aac799e6e21d3ed57663055e0f090ce682a2124038f")


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


def test_main_svg_without_out_writes_stdout(quadric_file, capsys):
    assert main(["svg", "--window=-2,2,-2,2", "--input", quadric_file]) == 0
    assert capsys.readouterr().out == render_svg_2d(
        build_cone(parse_input(QUADRIC)), ["-2", "2", "-2", "2"])


def test_main_svg_refuses_json(quadric_file, capsys):
    # svg prints an SVG document only, so it takes no --json flag
    assert main(["svg", "--window=-2,2,-2,2", "--json",
                 "--input", quadric_file]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unrecognized arguments: --json\n"


def test_main_svg_unwritable_out_exits_1(tmp_path, quadric_file, capsys):
    out_file = tmp_path / "missing" / "img.svg"
    assert main(["svg", "--window=-2,2,-2,2", "--input", quadric_file,
                 "--out", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output file")
    assert "Traceback" not in captured.err
    assert not out_file.exists()


def test_main_svg_past_budget_exits_1(quadric_file, capsys):
    start = time.process_time()
    assert main(["svg", "--window=0,10000,0,10000",
                 "--input", quadric_file]) == 1
    assert time.process_time() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and "past the budget of 1000000" in err


def test_main_support_trailing_comma(square_file, capsys):
    # analyze, nccr and resolution split --support alike: a trailing
    # comma adds no class
    for argv in (["analyze", "--json", "--support"], ["nccr", "--support"],
                 ["resolution", "A1", "--support"]):
        outs = []
        for support in ("A0,A1", "A0,A1,"):
            assert main(argv + [support, "--input", square_file]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    assert main(["analyze", "--json", "--support", "A0,",
                 "--input", square_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["partial_supports"][0]["support"] == ["A0"]


def test_main_negative_window_is_refused(square_file, capsys):
    # resolution checks no point on an empty window, so it must not
    # report the complex as validated
    for argv in (["resolution", "--support", "A0,A1", "A1"],
                 ["acyclicity"], ["analyze"]):
        assert main(argv + ["--window=-1", "--input", square_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "window" in captured.err


def test_main_window_past_budget_exits_1(square_file, capsys, monkeypatch):
    # radius 1 of the square holds 27 points
    monkeypatch.setattr(complexes, "WINDOW_BUDGET", 26)
    for argv in (["acyclicity"], ["analyze"],
                 ["resolution", "--support", "A0,A1", "A1"]):
        assert main(argv + ["--window", "1", "--input", square_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has 27 points, past the budget of 26" in captured.err
    assert main(["acyclicity", "--window", "0", "--input", square_file]) == 0


def test_bad_options_are_refused_before_the_walk(square_file, capsys,
                                                monkeypatch):
    # every option that needs no class list is checked before the walk
    def walk(spec):
        raise AssertionError("the class walk ran")

    for module in (chambers, cli_io, complexes, frobenius):
        monkeypatch.setattr(module, "enumerate_classes", walk)
    window = ("the window of radius 50 has 1030301 points, past the budget "
              "of 1000000")
    negative = "window radius must be a nonnegative integer, got -1"
    big = 2 ** 61 - 1
    residues = (f"the {big}-th root has {big ** 3} residues, past the budget "
                f"of {frobenius.ROOT_BUDGET}")
    cases = [
        (["--window", "50"], window),
        (["--window=-1"], negative),
        (["--q", "0"], "root index must be a positive integer, got 0"),
        (["--q", str(big)], residues),
        (["--dmodule", "4"], "characteristic must be prime, got 4"),
        (["--dmodule", str(2 ** 89 - 1)],
         f"characteristic {2 ** 89 - 1} is at least {frobenius.PRIME_BOUND}, "
         "beyond which primality is not decided here"),
    ]
    runs = [(["analyze"] + flags, msg) for flags, msg in cases]
    runs += [(["frobenius"] + flags, msg) for flags, msg in cases[2:]]
    for cmd in (["acyclicity"], ["resolution", "--support", "A0,A1", "A1"]):
        runs += [(cmd + flags, msg) for flags, msg in cases[:2]]
    for argv, msg in runs:
        assert main(argv + ["--input", square_file]) == 1, argv
        assert capsys.readouterr() == ("", f"error: {msg}\n"), argv


def test_main_frobenius_large_prime(tmp_path, capsys):
    # 2^61 - 1 is prime; the check must not trial-divide up to its root
    cyclic_file = tmp_path / "cyclic.json"
    cyclic_file.write_text(CYCLIC)
    p = 2 ** 61 - 1
    assert main(["frobenius", "--dmodule", str(p),
                 "--input", str(cyclic_file)]) == 0
    assert f"p={p}: minimal e with p^e complete is 1" in capsys.readouterr().out
    assert main(["frobenius", "--dmodule", str(2 ** 89 - 1),
                 "--input", str(cyclic_file)]) == 1
    assert str(frobenius.PRIME_BOUND) in capsys.readouterr().err


def test_main_frobenius_root_past_budget_exits_1(tmp_path, capsys):
    # 1/3(1,2) at q = 2^61 - 1: refused before any residue is listed
    cyclic_file = tmp_path / "cyclic.json"
    cyclic_file.write_text(CYCLIC)
    q = 2 ** 61 - 1
    start = time.process_time()
    assert main(["frobenius", "--q", str(q), "--input", str(cyclic_file)]) == 1
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{q ** 2} residues, past the budget of {frobenius.ROOT_BUDGET}"
            in captured.err)


def test_labels_leave_the_report_bytes_unchanged(tmp_path, capsys):
    # labels are validated on input but no report prints them
    labelled = tmp_path / "labelled.json"
    labelled.write_text(
        '{"rank":2,"dual_rays":[[1,1],[-1,1]],"labels":["a","b"]}')
    plain = tmp_path / "plain.json"
    plain.write_text(QUADRIC)
    outs = []
    for path in (plain, labelled):
        assert main(["analyze", "--json", "--input", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_readme_command_lines_run(tmp_path, quadric_file, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("conic ")]
    assert len(lines) >= 12
    for line in lines:
        args = [quadric_file if a == "cone.json"
                else str(tmp_path / a) if a == "map.svg" else a
                for a in shlex.split(line)[1:]]
        assert main(args) == 0, line
        capsys.readouterr()
