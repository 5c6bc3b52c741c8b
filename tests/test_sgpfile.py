import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandt import (
    AlgebraError,
    BadIdentity,
    BadZero,
    NonAssociative,
    ParseError,
    ShapeError,
    build_semigroup,
    parse_sgp,
    read_extension,
    write_extension,
    write_sgp,
)
from brandt.cli import main
from brandt.construct import brandt_extension, matrix_units, matrix_units_extension
from brandt.corpus import (
    chain,
    cyclic_group_with_zero,
    example_e,
    two_element,
)
from brandt.sgpfile import _parse_fields

CORPUS = [two_element(), chain(3), example_e(), cyclic_group_with_zero(2)]


def test_roundtrip_matrix_units():
    b2 = matrix_units(2)
    assert parse_sgp(write_sgp(b2)) == b2


def test_roundtrip_preserves_declarations():
    S = example_e()
    text = write_sgp(S)
    assert "zero 2" in text and "identity 0" in text
    T = parse_sgp(text)
    assert T.zero == 2 and T.identity == 0 and T.labels == S.labels


def test_labels_default_when_missing():
    S = parse_sgp("sgp 1\nn 2\nrow 0 1\nrow 1 1\n")
    assert S.labels == ("e0", "e1")


def test_comments_and_blank_lines_ignored():
    text = "# header comment\nsgp 1\n\nn 2\nlabels a b\nrow 0 1  # inline\nrow 1 1\nzero 1\n"
    S = parse_sgp(text)
    assert S.labels == ("a", "b") and S.zero == 1


def test_missing_row_reports_count():
    with pytest.raises(ParseError) as exc:
        parse_sgp("sgp 1\nn 3\nrow 0 1 2\nrow 1 1 2\n")
    assert "expected 3 rows" in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_sgp("sgp 1\nn 2\nrow 0 5\nrow 1 1\n")
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "text, line",
    [
        ("sgp 1\nn \u00b2\n", 2),  # superscript two as the order
        ("sgp 1\nn 2\nrow 0 \u00b2\nrow 1 1\n", 3),  # in a row
        ("sgp 1\nn 2\nrow 0 1\nrow 1 1\nzero \u00b9\n", 5),  # superscript one
        ("sgp 1\nn 2\nrow 0 1\nrow 1 1\nidentity \u0660\n", 5),  # Arabic-Indic zero
    ],
    ids=["order", "row", "zero", "identity"],
)
def test_non_ascii_digits_rejected(text, line):
    with pytest.raises(ParseError) as exc:
        parse_sgp(text)
    assert exc.value.line == line


# more digits than int() converts by default (4,300)
HUGE = "1" * 5000


@pytest.mark.parametrize(
    "text, line, message",
    [
        (f"sgp 1\nn {HUGE}\nrow 0\n", 2, "order too large"),
        (f"sgp 1\nn 2\nrow 0 {HUGE}\nrow 1 1\n", 3, "out of range 0..1"),
        (f"sgp 1\nn 2\nrow 0 1\nrow 1 1\nzero {HUGE}\n", 5, "zero index"),
        (f"sgp 1\nn 2\nrow 0 1\nrow 1 1\nidentity {HUGE}\n", 5, "identity index"),
    ],
    ids=["order", "row", "zero", "identity"],
)
def test_numbers_longer_than_int_converts_rejected(text, line, message):
    with pytest.raises(ParseError, match=message) as exc:
        parse_sgp(text)
    assert exc.value.line == line


def test_long_numbers_with_leading_zeros_parse():
    pad = "0" * 5000
    S = parse_sgp(f"sgp 1\nn {pad}2\nrow 0 {pad}1\nrow 1 1\nzero {pad}1\n")
    assert S.order == 2 and S.table == ((0, 1), (1, 1)) and S.zero == 1


def test_row_errors_name_the_first_offending_word():
    # the row converts in one pass; a bad row is rescanned word by word
    for row, word in [("0 1 3", "'3'"), ("0 x 9", "'x'"), (f"{HUGE} 1 1", f"'{HUGE}'")]:
        with pytest.raises(ParseError) as exc:
            parse_sgp(f"sgp 1\nn 3\nrow 0 1 2\nrow {row}\n")
        assert str(exc.value) == f"line 4: index {word} out of range 0..2"


def test_short_row_of_a_large_order_rejected_in_little_memory():
    # the table of index words is built only once a row has n entries
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse_sgp("sgp 1\nn 200000\nrow 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line == 3
    assert str(exc.value) == "line 3: row 0 has 1 entries, expected 200000"
    assert peak < 2_000_000


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_zero_padded_indices_parse_as_their_values(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=n - 1)
    pad = st.integers(min_value=0, max_value=3)
    words = data.draw(
        st.lists(
            st.lists(st.builds(lambda v, k: "0" * k + str(v), index, pad), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    text = f"sgp 1\nn {n}\n" + "".join("row " + " ".join(row) + "\n" for row in words)
    rows = _parse_fields(text)[0]
    assert rows == [tuple(map(int, row)) for row in words]


def test_legend_size_longer_than_int_converts_rejected():
    text = write_extension(matrix_units_extension(2)).replace("lambda 2", f"lambda {HUGE}")
    with pytest.raises(ParseError, match="legend size"):
        read_extension(text)


@pytest.mark.parametrize("label", ["a#b", "", "a b"], ids=["hash", "empty", "space"])
def test_unreadable_labels_not_written(label):
    S = build_semigroup([[0, 0], [0, 1]], [label, "c"])
    with pytest.raises(ShapeError):
        write_sgp(S)


def test_duplicate_labels_rejected():
    with pytest.raises(ParseError):
        parse_sgp("sgp 1\nn 2\nlabels a a\nrow 0 1\nrow 1 1\n")


def test_non_associative_table_rejected_with_witness():
    with pytest.raises(NonAssociative) as exc:
        parse_sgp("sgp 1\nn 2\nrow 1 0\nrow 0 0\n")
    assert exc.value.witness == (0, 0, 1)


def test_bad_zero_declaration():
    with pytest.raises(BadZero):
        parse_sgp("sgp 1\nn 2\nrow 0 1\nrow 1 1\nzero 0\n")


@pytest.mark.parametrize(
    "tail, line",
    [
        ("zero 0\nzero 1\n", 6),  # a false declaration before a true one
        ("zero 1\nzero 1\n", 6),
        ("identity 1\nidentity 0\n", 6),
        ("zero 1\nidentity 0\nzero 1\n", 7),
    ],
    ids=["false-then-true", "same-zero-twice", "identity-twice", "interleaved"],
)
def test_repeated_declaration_rejected(tail, line):
    with pytest.raises(ParseError, match="second") as exc:
        parse_sgp("sgp 1\nn 2\nrow 0 1\nrow 1 1\n" + tail)
    assert exc.value.line == line


def test_unknown_directive():
    with pytest.raises(ParseError):
        parse_sgp("sgp 1\nn 1\nrow 0\nfoo 1\n")


def test_bad_header():
    with pytest.raises(ParseError):
        parse_sgp("sgp 2\nn 1\nrow 0\n")


def test_extension_legend_roundtrip():
    ext = brandt_extension(example_e(), 2)
    text = write_extension(ext)
    back = read_extension(text)
    assert back is not None
    assert back.lam == 2
    assert back.carrier.table == ext.carrier.table
    assert back.carrier.labels == ext.carrier.labels
    assert back.base.order == ext.base.order
    # index coordinates survive even though the base is reindexed
    for idx in range(1, ext.carrier.order):
        a1, _, b1 = ext.decode(idx)
        a2, _, b2 = back.decode(idx)
        assert (a1, b1) == (a2, b2)


def test_plain_file_has_no_legend():
    assert read_extension(write_sgp(example_e())) is None
    # a size in non-ASCII digits is no legend, like any other non-number
    text = write_extension(matrix_units_extension(2))
    assert read_extension(text.replace("lambda 2", "lambda \u0662")) is None


def test_corrupted_legend_rejected():
    ext = matrix_units_extension(2)
    text = write_extension(ext).replace("lambda 2", "lambda 3")
    with pytest.raises(ParseError):
        read_extension(text)


def test_inconsistent_legend_rejected():
    # the five-element chain has the right size for rank 2, but its (0, 0)
    # block {0, 1} extends to the matrix units, not to the chain
    table = [[min(i, j) for j in range(5)] for i in range(5)]
    text = write_sgp(build_semigroup(table)) + "# brandt lambda 2\n"
    with pytest.raises(ParseError, match="legend is inconsistent"):
        read_extension(text)


def with_entry(text: str, i: int, j: int, v: int) -> str:
    """The document with entry (i, j) of its table set to v."""
    lines = text.split("\n")
    k = [n for n, line in enumerate(lines) if line.startswith("row ")][i]
    words = lines[k].split()
    words[1 + j] = str(v)
    lines[k] = " ".join(words)
    return "\n".join(lines)


def test_every_single_entry_edit_of_a_legend_file_is_rejected():
    # the carrier is trusted only once it equals the extension of its
    # validated (0, 0) block; every edit of one entry of these tables
    # breaks associativity, and read_extension rejects each one
    for base in (chain(3), cyclic_group_with_zero(2)):
        ext = brandt_extension(base, 2)
        text = write_extension(ext)
        assert read_extension(text).carrier == ext.carrier
        n = ext.carrier.order
        for i, j, v in itertools.product(range(n), repeat=3):
            if v != ext.carrier.table[i][j]:
                edited = with_entry(text, i, j, v)
                with pytest.raises(NonAssociative):
                    parse_sgp(edited)
                with pytest.raises(AlgebraError):
                    read_extension(edited)


def false_declarations():
    """Legend files declaring a zero or an identity that is not one."""
    rank_two = write_extension(brandt_extension(chain(3), 2))
    rank_one = write_extension(brandt_extension(chain(3), 1))
    assert "zero 0\n" in rank_two and "identity 1\n" in rank_one
    return [
        (rank_two.replace("zero 0\n", "zero 1\n"), BadZero),
        (rank_two.replace("zero 0\n", "zero 0\nidentity 1\n"), BadIdentity),
        (rank_one.replace("identity 1\n", "identity 2\n"), BadIdentity),
    ]


def test_false_declarations_in_legend_files_rejected():
    for text, error in false_declarations():
        with pytest.raises(error):
            read_extension(text)


def test_rejected_legend_files_exit_2_through_the_cli(tmp_path, capsys):
    ext = brandt_extension(chain(3), 2)
    text = write_extension(ext)
    broken = [
        with_entry(text, 1, 1, 0),  # in the (0, 0) block: not associative
        with_entry(text, 8, 8, 0),  # outside it: not associative
        write_sgp(build_semigroup([[min(i, j) for j in range(5)] for i in range(5)]))
        + "# brandt lambda 2\n",  # associative, but not the legend's extension
    ] + [doc for doc, _ in false_declarations()]
    path = tmp_path / "ext.sgp"
    path.write_text(text)
    assert main(["homs", str(path), str(path), "--classify"]) == 0
    for doc in broken:
        path.write_text(doc)
        capsys.readouterr()
        assert main(["homs", str(path), str(path), "--classify"]) == 2
        assert "error:" in capsys.readouterr().err


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_random_extension_roundtrip(data):
    S = data.draw(st.sampled_from(CORPUS))
    lam = data.draw(st.integers(min_value=1, max_value=3))
    ext = brandt_extension(S, lam)
    assert parse_sgp(write_sgp(ext.carrier)) == ext.carrier


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("# a comment\n\n", "empty document", None),
        ("sgp 1\n", "unexpected end of document", 1),
        ("sgp 1\nn 0\n", "order must be positive", 2),
        ("sgp 1\nn 1\nrow 0\nlabels a\n", "labels line out of place", 4),
        ("sgp 1\nn 2\nlabels a b c\n", "3 labels for 2 elements", 3),
        ("sgp 1\nn 2\nrow 0 1\nzero 1\nrow 1 1\n", "row after zero/identity line", 5),
        ("sgp 1\nn 1\nrow 0\nrow 0\n", "more than 1 rows", 4),
    ],
    ids=["empty", "end", "order-zero", "labels-late", "label-count", "row-late", "extra-row"],
)
def test_layout_errors_name_their_line(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_sgp(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")
