"""The .sgp text format for Cayley tables.

Layout, in order: a `sgp 1` header, `n <order>`, an optional `labels` line
(space-separated tokens, defaulting to e0..e{n-1}), n `row` lines of 0-based
indices, then optional `zero <index>` and `identity <index>` lines.  Numbers
are ASCII digits only, with no more significant digits than ``int()``
converts, and `#` starts a comment, so a label is a non-empty token without
whitespace or `#`; write_sgp refuses any other.  Writing is
canonical (single spaces, labels always present, newline-terminated), and
parse(write(S)) reproduces S exactly.
"""

from __future__ import annotations

import re
from typing import Optional

from .core import (
    FiniteSemigroup,
    ParseError,
    ShapeError,
    _trusted_semigroup,
    build_semigroup,
)
from .construct import BrandtExtension, _extension_table

FORMAT_VERSION = 1


def write_sgp(S: FiniteSemigroup) -> str:
    if any(not lab or re.search(r"[\s#]", lab) for lab in S.labels):
        raise ShapeError("labels must be non-empty, without whitespace or '#'")
    lines = [f"sgp {FORMAT_VERSION}", f"n {S.order}", "labels " + " ".join(S.labels)]
    names = [str(i) for i in range(S.order)]
    for row in S.table:
        lines.append("row " + " ".join(map(names.__getitem__, row)))
    if S.zero is not None:
        lines.append(f"zero {S.zero}")
    if S.identity is not None:
        lines.append(f"identity {S.identity}")
    return "\n".join(lines) + "\n"


def _is_index(word: str) -> bool:
    return word.isascii() and word.isdigit()


def _number(word: str) -> Optional[int]:
    """The value of a word of ASCII digits, or None for any other word.

    Leading zeros are dropped first, so None for a word of digits means it
    has more significant digits than ``int()`` converts (4,300 by default):
    a value above every order that converted.
    """
    if not _is_index(word):
        return None
    try:
        return int(word.lstrip("0") or "0")
    except ValueError:
        return None


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_fields(text: str):
    """The rows, labels, zero and identity of a .sgp document, unvalidated
    beyond the layout, the row lengths and the index ranges."""
    tokens = list(_tokenize(text))
    if not tokens:
        raise ParseError("empty document")
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of document", tokens[-1][0])
        item = tokens[pos]
        pos += 1
        return item

    lineno, words = take()
    if words != ["sgp", str(FORMAT_VERSION)]:
        raise ParseError(f"expected header 'sgp {FORMAT_VERSION}'", lineno)
    lineno, words = take()
    if len(words) != 2 or words[0] != "n" or not _is_index(words[1]):
        raise ParseError("expected 'n <order>'", lineno)
    n = _number(words[1])
    if n is None:
        raise ParseError("order too large", lineno)
    if n < 1:
        raise ParseError("order must be positive", lineno)

    labels: Optional[list[str]] = None
    rows: list[tuple[int, ...]] = []
    zero: Optional[int] = None
    identity: Optional[int] = None
    row_line = None
    # canonical index words to their values, built at the first row of n
    # entries, so it is never larger than the input
    index: Optional[dict[str, int]] = None

    while pos < len(tokens):
        lineno, words = take()
        key = words[0]
        if key == "labels":
            if labels is not None or rows:
                raise ParseError("labels line out of place", lineno)
            labels = words[1:]
            if len(labels) != n:
                raise ParseError(f"{len(labels)} labels for {n} elements", lineno)
            if len(set(labels)) != n:
                raise ParseError("duplicate labels", lineno)
        elif key == "row":
            if zero is not None or identity is not None:
                raise ParseError("row after zero/identity line", lineno)
            if len(rows) == n:
                raise ParseError(f"more than {n} rows", lineno)
            entries = words[1:]
            if len(entries) != n:
                raise ParseError(
                    f"row {len(rows)} has {len(entries)} entries, expected {n}", lineno
                )
            if index is None:
                index = {str(i): i for i in range(n)}
            try:
                row = tuple(map(index.__getitem__, entries))
            except KeyError:
                # word by word: leading zeros parse, and an error names the
                # first offending word
                row = []
                for w in entries:
                    v = _number(w)
                    if v is None or v >= n:
                        raise ParseError(f"index {w!r} out of range 0..{n - 1}", lineno)
                    row.append(v)
            rows.append(tuple(row))
            row_line = lineno
        elif key in ("zero", "identity"):
            if (zero if key == "zero" else identity) is not None:
                raise ParseError(f"second {key} line", lineno)
            if len(words) != 2 or not _is_index(words[1]):
                raise ParseError(f"expected '{key} <index>'", lineno)
            v = _number(words[1])
            if v is None or v >= n:
                raise ParseError(f"{key} index {words[1]} out of range", lineno)
            if key == "zero":
                zero = v
            else:
                identity = v
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)

    if len(rows) != n:
        raise ParseError(
            f"expected {n} rows, found {len(rows)}", row_line if row_line else lineno
        )
    return rows, labels, zero, identity


def parse_sgp(text: str) -> FiniteSemigroup:
    """Parse a .sgp document; errors carry the offending line number."""
    rows, labels, zero, identity = _parse_fields(text)
    return build_semigroup(rows, labels, zero=zero, identity=identity)


def write_extension(ext: BrandtExtension) -> str:
    """Serialize an extension's carrier plus a coordinate legend.

    The legend records the index-set size and, per nonzero carrier index, the
    (a, s, b) coordinates; the machine only needs the size line, since the
    carrier ordering is canonical and the base is the (0, s, 0) block.
    """
    out = [write_sgp(ext.carrier).rstrip("\n")]
    out.append(f"# brandt lambda {ext.lam}")
    for idx, (a, s, b) in enumerate(ext.coords[1:], start=1):
        out.append(f"# coord {idx} ({a},{ext.base.labels[s]},{b})")
    return "\n".join(out) + "\n"


_LAMBDA_RE = re.compile(r"^#\s*brandt\s+lambda\s+([0-9]+)\s*$", re.MULTILINE)


def read_extension(text: str) -> Optional[BrandtExtension]:
    """Rebuild extension coordinates from a legend-carrying document.

    Returns None when no legend is present.  The diagonal block at index pair
    (0, 0), together with the carrier zero, recovers the base, which is
    validated in full; the extension table rebuilt from that base must equal
    the parsed table.  The carrier is then associative by construction, so
    it is not validated again; its declared zero and identity are verified.
    """
    m = _LAMBDA_RE.search(text)
    if not m:
        return None
    lam = _number(m.group(1))
    rows, labels, zero, identity = _parse_fields(text)
    n = len(rows)
    if not lam or (n - 1) % (lam * lam) != 0:
        raise ParseError("legend size does not divide the carrier")
    size = (n - 1) // (lam * lam) + 1
    corner = [row[:size] for row in rows[:size]]
    if any(v >= size for row in corner for v in row):
        raise ParseError("legend is inconsistent with the table")
    base = build_semigroup(corner, labels and labels[:size])
    if base.zero != 0:
        raise ParseError("extension carriers keep their zero at index 0")
    table = tuple(rows)
    if table != _extension_table(base, lam):
        raise ParseError("legend is inconsistent with the table")
    carrier = _trusted_semigroup(table, labels, zero=zero, identity=identity)
    return BrandtExtension(base=base, lam=lam, carrier=carrier)
