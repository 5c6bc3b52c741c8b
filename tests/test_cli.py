import os
import sys
from pathlib import Path

import pytest

from brandt import BudgetExceeded, build_semigroup, iso_search, sgpfile
from brandt.cli import main
from brandt.construct import brandt_extension, matrix_units_extension, orthogonal_sum
from brandt.corpus import (
    b2_with_identity,
    chain,
    cyclic_group_with_zero,
    example_e,
    rect_band_with_unit_and_zero,
    two_element,
)
from brandt.fixtures import FIXTURES
from brandt.sgpfile import write_extension, write_sgp


@pytest.fixture
def e_file(tmp_path):
    path = tmp_path / "e.sgp"
    path.write_text(write_sgp(example_e()))
    return str(path)


@pytest.fixture
def two_file(tmp_path):
    path = tmp_path / "two.sgp"
    path.write_text(write_sgp(two_element()))
    return str(path)


def test_props(e_file, capsys):
    assert main(["props", e_file, "--lambda", "2"]) == 0
    out = capsys.readouterr().out
    assert "inverse" in out and "classifiable_target : yes" in out


def test_props_of_the_trivial_semigroup(tmp_path, capsys):
    path = tmp_path / "one.sgp"
    path.write_text("sgp 1\nn 1\nrow 0\n")
    assert main(["props", str(path)]) == 0
    assert capsys.readouterr().out == (
        "order               : 1\n"
        "monoid_with_zero    : yes\n"
        "regular             : yes\n"
        "inverse             : yes\n"
        "clifford            : yes\n"
        "idempotents_central : yes\n"
        "primitive_inverse   : yes\n"
        "congruence_free     : no\n"
        "b2_free             : yes\n"
        "blambda_free[2]     : yes\n"
        "classifiable_target : yes\n"
    )


def test_props_match_golden(tmp_path, capsys):
    """``props --lambda 2`` of nine bases, of their rank-2 extensions written
    by ``extend``, and of the rank-6 extension of C8^0 (order 289, above the
    congruence bound), each after a ``# name`` line, byte for byte as checked
    in."""
    bases = {
        "two_element": two_element(),
        "chain3": chain(3),
        "chain4": chain(4),
        "example_e": example_e(),
        "c2": cyclic_group_with_zero(2),
        "c3": cyclic_group_with_zero(3),
        "c8": cyclic_group_with_zero(8),
        "rect": rect_band_with_unit_and_zero(),
        "b2one": b2_with_identity(),
    }
    runs = [*bases, *(f"{name}x2" for name in bases), "c8x6"]
    for name, S in bases.items():
        (tmp_path / f"{name}.sgp").write_text(write_sgp(S))
    for base, lam in [*((name, 2) for name in bases), ("c8", 6)]:
        src, out = tmp_path / f"{base}.sgp", tmp_path / f"{base}x{lam}.sgp"
        assert main(["extend", str(src), "--lambda", str(lam), "-o", str(out)]) == 0
    capsys.readouterr()
    outs = []
    for name in runs:
        assert main(["props", str(tmp_path / f"{name}.sgp"), "--lambda", "2"]) == 0
        outs.append(f"# {name}\n" + capsys.readouterr().out)
    golden = Path(__file__).parent / "data" / "props.txt"
    assert "".join(outs) == golden.read_text(encoding="utf-8")


def test_units_and_extend(tmp_path, two_file, capsys):
    out_b2 = str(tmp_path / "b2.sgp")
    assert main(["units", "--lambda", "2", "-o", out_b2]) == 0
    text = open(out_b2).read()
    assert "n 5" in text and "# brandt lambda 2" in text

    out_ext = str(tmp_path / "ext.sgp")
    assert main(["extend", two_file, "--lambda", "1", "-o", out_ext]) == 0
    capsys.readouterr()
    assert main(["props", out_ext]) == 0
    # rank-one extension of the two-element monoid is that monoid again
    assert "order" in capsys.readouterr().out
    assert "n 2" in open(out_ext).read()

    # a rank below 1 is an input error: a message, no traceback, exit 2
    capsys.readouterr()
    assert main(["units", "--lambda", "0", "-o", out_b2]) == 2
    assert main(["extend", two_file, "--lambda", "-1", "-o", out_ext]) == 2
    err = capsys.readouterr().err
    assert "lambda must be positive" in err and "Traceback" not in err


def test_extend_and_units_match_their_golden_files(tmp_path):
    """``extend`` and ``units`` write canonical .sgp text, the carrier and
    its (a, s, b) coordinate legend, byte for byte as checked in."""
    data = Path(__file__).parent / "data"
    base = tmp_path / "chain3.sgp"
    base.write_text(write_sgp(chain(3)))
    runs = {
        "extension_chain3x3.sgp": ["extend", str(base), "--lambda", "3"],
        "units3.sgp": ["units", "--lambda", "3"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "-o", str(out)]) == 0
        assert out.read_bytes() == (data / name).read_bytes()


def test_homs_classified(tmp_path, capsys):
    out_b2 = str(tmp_path / "b2.sgp")
    main(["units", "--lambda", "2", "-o", out_b2])
    capsys.readouterr()
    assert main(["homs", out_b2, out_b2, "--nontrivial", "--classify"]) == 0
    out = capsys.readouterr().out.splitlines()
    hom_lines = [l for l in out if not l.startswith("#")]
    assert len(hom_lines) == 2
    assert all("triple" in l for l in hom_lines)


def test_homs_classify_matches_golden(tmp_path, capsys):
    """Recovered triples next to each NotClassifiable reason a real
    homomorphism can get (a weight outside H(e), a reconstruction that
    differs), over four legend-carrying pairs; the concatenated stdout must
    match the checked-in transcript byte for byte."""
    b2x = matrix_units_extension(2)
    rect = brandt_extension(rect_band_with_unit_and_zero(), 2)
    chain3 = brandt_extension(chain(3), 2)
    pairs = [
        (b2x, rect),
        (b2x, brandt_extension(b2_with_identity(), 2)),
        (brandt_extension(cyclic_group_with_zero(2), 1), chain3),
        (chain3, rect),
    ]
    outs = []
    for k, exts in enumerate(pairs):
        paths = []
        for side, ext in zip("st", exts):
            path = tmp_path / f"{k}{side}.sgp"
            path.write_text(write_extension(ext))
            paths.append(str(path))
        assert main(["homs", "--classify", "--nontrivial", *paths]) == 0
        outs.append(capsys.readouterr().out)
    golden = Path(__file__).parent / "data" / "homs_classify.txt"
    assert "".join(outs) == golden.read_text(encoding="utf-8")


def test_homs_classify_preconditions_match_golden(tmp_path, capsys):
    """The verdicts recover_triple raises rather than returns, printed with
    the exception's message: trivial maps (no --nontrivial), a source index
    set larger than the target one, and a source or a target base without
    identity.  The concatenated stdout must match the checked-in transcript
    byte for byte."""
    glued, _ = orthogonal_sum([two_element(), two_element()])
    files = {
        "two1": brandt_extension(two_element(), 1),
        "two2": brandt_extension(two_element(), 2),
        "b2one1": brandt_extension(b2_with_identity(), 1),
        "glued2": brandt_extension(glued, 2),
    }
    for name, ext in files.items():
        (tmp_path / f"{name}.sgp").write_text(write_extension(ext))
    runs = [
        ("two1", "two1"),
        ("two2", "b2one1", "--nontrivial"),
        ("glued2", "two2", "--nontrivial"),
        ("two2", "glued2", "--nontrivial"),
    ]
    outs = []
    for source, target, *flags in runs:
        paths = [str(tmp_path / f"{name}.sgp") for name in (source, target)]
        assert main(["homs", "--classify", *flags, *paths]) == 0
        outs.append(capsys.readouterr().out)
    golden = Path(__file__).parent / "data" / "homs_preconditions.txt"
    assert "".join(outs) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [["iso"], ["homs"], ["homs", "--classify"]],
    ids=["iso", "homs", "homs-classify"],
)
def test_a_path_given_twice_is_parsed_once(tmp_path, monkeypatch, argv):
    """Parsing validates the (0, 0) block of a legend-carrying file and the
    whole table of any other file with build_semigroup, once per file."""
    path = tmp_path / "e2.sgp"
    path.write_text(write_extension(brandt_extension(example_e(), 2)))
    calls = []
    build = sgpfile.build_semigroup

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(sgpfile, "build_semigroup", counting)
    assert main([*argv, str(path), str(path)]) == 0
    assert len(calls) == 1


def test_homs_without_legend_reports_reason(e_file, capsys):
    assert main(["homs", e_file, e_file, "--nontrivial", "--classify"]) == 0
    out = capsys.readouterr().out
    assert "NOT-CLASSIFIABLE(no extension coordinates" in out


def test_homs_into_a_file_without_legend_reports_the_target(tmp_path, e_file, capsys):
    source = tmp_path / "e1.sgp"
    source.write_text(write_extension(brandt_extension(example_e(), 1)))
    assert main(["homs", str(source), e_file, "--nontrivial", "--classify"]) == 0
    *maps, total = capsys.readouterr().out.splitlines()
    assert (len(maps), total) == (7, "# 7 homomorphism(s)")
    reason = f"  NOT-CLASSIFIABLE(no extension coordinates in {e_file})"
    assert all(line.endswith(reason) for line in maps)


def test_iso_exit_codes(tmp_path, e_file, two_file, capsys):
    assert main(["iso", e_file, e_file]) == 0
    assert main(["iso", e_file, two_file]) == 1
    out = capsys.readouterr().out
    assert "NOT-ISOMORPHIC" in out


def test_verify_pass_and_exit(capsys):
    # one test over every fixture, so the test id stays the same; the
    # concatenated stdout must match the checked-in transcript byte for byte
    outs = []
    for name in sorted(FIXTURES):
        assert main(["verify", name]) == 0, name
        out = capsys.readouterr().out
        assert f"PASS: {name}" in out
        outs.append(out)
    golden = Path(__file__).parent / "data" / "verify.txt"
    assert "".join(outs) == golden.read_text(encoding="utf-8")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.sgp"
    bad.write_text("sgp 1\nn 2\nrow 0 1\n")
    assert main(["props", str(bad)]) == 2
    # a superscript digit passes str.isdigit but is not an index
    bad.write_text("sgp 1\nn 2\nrow 0 \u00b2\nrow 1 1\n", encoding="utf-8")
    assert main(["props", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err
    # a false zero declaration followed by a true one
    bad.write_text("sgp 1\nn 2\nrow 0 1\nrow 1 1\nzero 0\nzero 1\n")
    assert main(["props", str(bad)]) == 2
    assert "line 6" in capsys.readouterr().err
    # more digits than int() converts, in each of the four directives
    huge = "1" * 5000
    for text, line in [
        (f"sgp 1\nn {huge}\nrow 0\n", 2),
        (f"sgp 1\nn 2\nrow 0 {huge}\nrow 1 1\n", 3),
        (f"sgp 1\nn 2\nrow 0 1\nrow 1 1\nzero {huge}\n", 5),
        (f"sgp 1\nn 2\nrow 0 1\nrow 1 1\nidentity {huge}\n", 5),
    ]:
        bad.write_text(text)
        assert main(["props", str(bad)]) == 2
        assert f"line {line}:" in capsys.readouterr().err


def test_output_is_deterministic(tmp_path, e_file, capsys):
    out_ext = str(tmp_path / "e2.sgp")
    main(["extend", e_file, "--lambda", "2", "-o", out_ext])
    capsys.readouterr()
    main(["homs", out_ext, out_ext, "--nontrivial", "--classify"])
    first = capsys.readouterr().out
    main(["homs", out_ext, out_ext, "--nontrivial", "--classify"])
    second = capsys.readouterr().out
    assert first == second
    main(["props", out_ext])
    third = capsys.readouterr().out
    main(["props", out_ext])
    assert capsys.readouterr().out == third


def test_budget_override(tmp_path, e_file, monkeypatch, capsys):
    out_ext = str(tmp_path / "e2.sgp")
    main(["extend", e_file, "--lambda", "2", "-o", out_ext])
    monkeypatch.setenv("BRANDT_SEARCH_BUDGET", "3")
    assert main(["homs", out_ext, out_ext]) == 3
    assert main(["iso", out_ext, out_ext]) == 3
    # ASCII digits only, as in .sgp indices: int() would take the three
    # values after "0", and the last one has more digits than it converts
    for bad in ("junk", "-5", "0", "\u0663", "1_000", " 7", "9" * 5000):
        monkeypatch.setenv("BRANDT_SEARCH_BUDGET", bad)
        assert main(["homs", out_ext, out_ext]) == 2
        assert f"bad BRANDT_SEARCH_BUDGET value {bad!r}" in capsys.readouterr().err


def test_search_deeper_than_the_stack_exits_3(tmp_path, capsys):
    """On a null semigroup every element is a generator, so the search
    nests one level per element; past the recursion limit it stops with
    BudgetExceeded (exit 3), not RecursionError (exit 1)."""
    n = 300
    S = build_semigroup([[0] * n for _ in range(n)])
    path = tmp_path / "null.sgp"
    path.write_text(write_sgp(S))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        with pytest.raises(BudgetExceeded, match="recursion limit"):
            iso_search(S, S)
        assert main(["iso", str(path), str(path)]) == 3
    finally:
        sys.setrecursionlimit(limit)
    assert "search depth 300 exceeds" in capsys.readouterr().err
    assert iso_search(S, S) == tuple(range(n))
