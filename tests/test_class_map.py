"""The class map of derived ceiling vectors (``cells.class_of``).

Root residues, map pieces, open conics, spliced terms and the acyclicity
table's representatives get their class from ``class_of``; user input
keeps the gate (``cells.chamber_gate``).
A derived vector whose class has no cell is a bug, so it exits 2 and
names the vector, while a non-chamber a user gives still exits 1.
"""

import ast
import json
import re
from fractions import Fraction
from itertools import product

import pytest

from conic import cells, from_normals, frobenius
from conic.cells import class_of, enumerate_cells, open_conic
from conic.chambers import canonical_class, chamber_of, enumerate_classes
from conic.cli_io import main
from conic.complexes import resolution
from conic.cone import content_hash
from conic.errors import (
    InputError, InternalInvariantError, SupportNotClosedError)
from conic.svg import drawn_chambers

from test_svg import PINNED_SVG

CONES = ["quadric", "square", "cyclic", "orthant2", "orthant3", "pentagon"]


def _check(spec, vecs):
    for c in vecs:
        assert class_of(spec, c) == canonical_class(spec, c), c


@pytest.mark.parametrize("cone", CONES)
def test_class_of_root_residues(cone, request):
    spec = request.getfixturevalue(cone)
    for q in (1, 2, 3, 4):
        _check(spec, (chamber_of(spec, [Fraction(-x, q) for x in v])
                      for v in product(range(q), repeat=spec.rank)))


@pytest.mark.parametrize("normals,window,digest", PINNED_SVG)
def test_class_of_map_pieces(normals, window, digest):
    spec = from_normals(2, normals)
    _check(spec, (c for c, _ in drawn_chambers(spec, window)))


@pytest.mark.parametrize("cone", CONES + ["hexagon"])
def test_class_of_open_conics(cone, request):
    spec = request.getfixturevalue(cone)
    for rep in enumerate_classes(spec).reps:
        _check(spec, map(open_conic, enumerate_cells(spec, rep)))


def test_class_of_spliced_terms(square):
    # the terms of each spliced complex, or the open conics of the cells
    # that fall outside a support that is not closed
    classes = enumerate_classes(square)
    spliced = 0
    for labels in (("A0", "A1"), ("A0", "A2")):
        support = tuple(map(classes.rep_of, labels))
        for rep in support:
            try:
                rpt = resolution(square, support, rep)
            except SupportNotClosedError as err:
                _check(square, map(open_conic, err.cells))
                continue
            spliced += rpt.spliced
            _check(square, (vec for row in rpt.complex.terms for vec in row))
    assert spliced


def test_class_of_refuses_a_derived_non_chamber(square):
    with pytest.raises(InternalInvariantError, match=r"\(0, 0, -5, 0\)"):
        class_of(square, (0, 0, -5, 0))


def _break_class(monkeypatch, bad):
    # class_pattern as if the class bad had no cell
    real = cells.class_pattern

    def patched(spec, c):
        if c == bad:
            raise cells._NoCells(c)
        return real(spec, c)

    patched.keep = real.keep  # the class walk fills the real table
    monkeypatch.setattr(cells, "class_pattern", patched)


def _run(tmp_path, spec, argv):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": spec.rank, "normals": spec.normals}))
    return main(argv + ["--input", str(path)])


def _square_term_class(square, label, support=()):
    # a class of a positive-degree term of the complex of label's class,
    # other than that class and those of the support
    classes = enumerate_classes(square)
    rep = classes.rep_of(label)
    skip = {rep, *map(classes.rep_of, support)}
    return next(
        canonical_class(square, v)
        for v in map(open_conic, enumerate_cells(square, rep)[1:])
        if canonical_class(square, v) not in skip)


def _root_class(spec):
    # a class other than the free one that the residues of q = 2 meet
    return next(rep for rep, _ in frobenius.decompose_root(spec, 2).counts
                if any(rep))


def _cases(quadric, cyclic, square):
    yield quadric, ["svg", "--window=-2,2,-2,2"], (0, 1)
    yield cyclic, ["frobenius", "--q", "2"], _root_class(cyclic)
    for cmd in ("cells", "complex"):
        yield square, [cmd, "A0"], _square_term_class(square, "A0")
    yield (square, ["resolution", "--support", "A0,A1", "A0"],
           _square_term_class(square, "A0", ("A0", "A1")))


def test_derived_non_chamber_exits_2(quadric, cyclic, square, tmp_path,
                                     capsys, monkeypatch):
    for spec, argv, bad in list(_cases(quadric, cyclic, square)):
        with monkeypatch.context() as m:
            _break_class(m, bad)
            assert _run(tmp_path, spec, argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal invariant violated: derived ceiling "
                              "vector ("), (argv, err)
        assert err.endswith(f"(cone {content_hash(spec)})\n")
        named = re.search(r"vector (\(.*?\))", err).group(1)
        assert canonical_class(spec, ast.literal_eval(named)) == bad, argv


def test_lost_representative_in_acyclicity_exits_2(square, tmp_path, capsys,
                                                  monkeypatch):
    # the acyclicity table takes the walk's representatives ungated, so
    # one that has lost its cells after the walk is a bug, not bad input
    lost = enumerate_classes(square).rep_of("A1")
    _break_class(monkeypatch, lost)
    assert _run(tmp_path, square, ["acyclicity"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"internal invariant violated: derived ceiling vector "
                   f"{lost} is not a chamber (cone {content_hash(square)})\n")


def test_user_non_chamber_exits_1(square, tmp_path, capsys):
    for cmd in ("cells", "complex"):
        assert _run(tmp_path, square, [cmd, "0,0,-5,0"]) == 1
        assert capsys.readouterr().err == (
            "error: ceiling vector '0,0,-5,0' is not a chamber\n")
    with pytest.raises(InputError, match="not a chamber"):
        canonical_class(square, (0, 0, -5, 0))
