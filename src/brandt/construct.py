"""Brandt extensions, matrix-unit semigroups, orthogonal sums.

The extension of a semigroup S with zero over an index set of size lam has
carrier {(a, s, b) : a, b < lam, s in S minus its zero} plus one zero, with
(a, s, b)(c, t, d) = (a, st, d) when b = c and st is nonzero, and the zero
otherwise.  The carrier zero sits at index 0 and the remaining elements are
ordered lexicographically by (a, b, s): each index pair (a, b) owns a block
of m consecutive indices, m the number of nonzero base elements, which
starts at 1 + (a*lam + b)*m and lists (a, s, b) with s ascending.
``_block_starts`` is the one place that layout is written; the default
labels, the carrier table and the coordinates are read off it.
BrandtExtension tabulates the coordinates once per extension: the start of
each block, the position of each base index within a block and the
(a, s, b) of each carrier index.  encode and decode are lookups in those
tables and raise ValueError on a coordinate or index outside the extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import (
    ConformanceError,
    FiniteSemigroup,
    FunctionSemigroup,
    NoZero,
    ShapeError,
    _memoized,
    _trusted_semigroup,
    build_semigroup,
    cached_property,
)
from .homs import Homomorphism, check_homomorphism


@dataclass(frozen=True)
class BrandtExtension:
    """A constructed extension together with its coordinate maps."""

    base: FiniteSemigroup
    lam: int
    carrier: FiniteSemigroup

    @cached_property
    def nonzero_base(self) -> tuple[int, ...]:
        """Base indices, ascending, zero omitted."""
        return _nonzero(self.base)

    @cached_property
    def position(self) -> tuple[Optional[int], ...]:
        """Offset of each base index within a coordinate block; None at the
        zero.  Tabulated once per extension."""
        position: list[Optional[int]] = [None] * self.base.order
        for p, s in enumerate(self.nonzero_base):
            position[s] = p
        return tuple(position)

    @cached_property
    def coords(self) -> tuple[Optional[tuple[int, int, int]], ...]:
        """Coordinates (a, s, b) of each carrier index; None at the zero.
        Tabulated once per extension."""
        return _carrier_coords(self.nonzero_base, self.lam)

    @cached_property
    def block_starts(self) -> tuple[tuple[int, ...], ...]:
        """Carrier index of the first element of each block (a, b), at
        [a][b].  Tabulated once per extension."""
        return _block_starts(self.lam, len(self.nonzero_base))

    def encode(self, a: int, s: int, b: int) -> int:
        """Carrier index of (a, s, b), from the tabulated block positions.
        Raises ValueError unless s is a nonzero base index and a, b lie in
        range(lam)."""
        p = self.position[s] if 0 <= s < self.base.order else None
        if p is None or not (0 <= a < self.lam and 0 <= b < self.lam):
            raise ValueError(f"({a}, {s}, {b}) is not a coordinate of the extension")
        return self.block_starts[a][b] + p

    def decode(self, idx: int) -> tuple[int, int, int]:
        """Coordinates (a, s, b) of a carrier index, from the tabulated
        coords.  Raises ValueError at the zero and outside 1..order-1."""
        if idx == 0:
            raise ValueError("the zero has no coordinates")
        if not 0 < idx < self.carrier.order:
            raise ValueError(f"{idx} is not a carrier index")
        return self.coords[idx]

    @property
    def zero(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"BrandtExtension(lam={self.lam}, base={self.base!r})"


def _nonzero(S: FiniteSemigroup) -> tuple[int, ...]:
    """Base indices, ascending, zero omitted: the order of each block."""
    return tuple(s for s in range(S.order) if s != S.zero)


def _block_starts(lam: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The carrier layout, written here only: the zero at index 0, then the
    blocks (a, b) of m consecutive indices in lexicographic order of (a, b).
    [a][b] is the first index of block (a, b).  The lam blocks (b, d) of one
    first index b lie side by side, which ``_extension_table`` relies on."""
    return tuple(tuple([1 + (a * lam + b) * m for b in range(lam)]) for a in range(lam))


def _carrier_coords(nonzero: tuple[int, ...], lam: int) -> tuple:
    """(a, s, b) of each carrier index, None at the zero: each block (a, b)
    of ``_block_starts`` lists (a, s, b) for s in ``nonzero`` order."""
    m = len(nonzero)
    coords: list = [None] * (lam * lam * m + 1)
    for a, starts in enumerate(_block_starts(lam, m)):
        for b, start in enumerate(starts):
            coords[start : start + m] = [(a, s, b) for s in nonzero]
    return tuple(coords)


def _extension_table(S: FiniteSemigroup, lam: int) -> tuple[tuple[int, ...], ...]:
    """The carrier table of the extension of S over lam indices, row by row.

    (a, s, b)(c, t, d) is nonzero only when c = b, so the row of (a, s, b)
    is zeros, then the lam blocks (b, d) side by side, then zeros.  The
    blocks hold (a, st, d), or 0 where st is the zero, and depend on (a, s)
    alone, so each such run is built once and each row is one tuple
    concatenation.  Serves ``brandt_extension``, the table check of
    ``sgpfile.read_extension`` and, through them, the double extension.
    """
    nonzero = _nonzero(S)
    m = len(nonzero)
    starts = _block_starts(lam, m)
    pos = {s: p for p, s in enumerate(nonzero)}
    # block offset of st for nonzero s, t; None where st is the zero
    offsets = [[pos.get(S.table[s][t]) for t in nonzero] for s in nonzero]
    zeros = (0,) * (lam * lam * m + 1)
    table = [zeros] * len(zeros)
    for outs in starts:
        # the blocks (b, d) of the row of (a, s, b), d ascending, for each s
        runs = [
            tuple([0 if r is None else out + r for out in outs for r in offs])
            for offs in offsets
        ]
        for b, start in enumerate(outs):
            first = starts[b][0]
            left, right = zeros[:first], zeros[first + lam * m :]
            table[start : start + m] = [left + run + right for run in runs]
    return tuple(table)


def brandt_extension(S: FiniteSemigroup, lam: int, carrier_labels=None) -> BrandtExtension:
    """Build the extension of a semigroup with zero over lam indices.

    The base need not be a monoid (orthogonal sums of monoids are not), so
    only the zero is required here; operations that need 1_S check for it
    themselves.  The carrier table is associative because the base is, so
    it is wrapped without Light's test; ``carrier_labels`` are still
    checked for count and duplicates.

    Every carrier built from one base instance at one lam with the default
    labels is the same value: the same table, labels, zero and identity.
    Every entry of a semigroup's memo is a function of its value alone and
    none refers back to the semigroup, so these carriers share one memo,
    kept in the base's memo under ("extension_memo", lam).  What is derived
    from the carrier (its subsemigroups and maximal subgroups, its
    matrix-unit flags, and so the T0, the image and the extension of T0 of
    ``category.image_decomposition``) is then built once per base and lam,
    not once per carrier, while the carrier table itself is not kept.  A
    carrier with caller-given labels keeps a memo of its own.
    """
    if S.zero is None:
        raise NoZero("Brandt extensions need a base zero")
    if lam < 1:
        raise ShapeError(f"lambda must be positive, got {lam}")
    coords = _carrier_coords(_nonzero(S), lam)
    default_labels = carrier_labels is None
    if default_labels:
        carrier_labels = ["0"] + [f"({a},{S.labels[s]},{b})" for a, s, b in coords[1:]]
    carrier = _trusted_semigroup(_extension_table(S, lam), carrier_labels, zero=0)
    if default_labels:
        carrier.__dict__["_memo"] = _memoized(S, ("extension_memo", lam), dict)
    ext = BrandtExtension(base=S, lam=lam, carrier=carrier)
    ext.__dict__["coords"] = coords  # fills the cached property
    return ext


_TWO_ELEMENT = build_semigroup([[0, 1], [1, 1]], ["1", "0"])


def matrix_units_extension(lam: int) -> BrandtExtension:
    """The rank-lam matrix units, kept with their extension coordinates."""
    labels = ["0"] + [
        f"({a + 1},{b + 1})" for a in range(lam) for b in range(lam)
    ]
    return brandt_extension(_TWO_ELEMENT, lam, carrier_labels=labels)


@lru_cache(maxsize=None)
def matrix_units(lam: int) -> FiniteSemigroup:
    """The semigroup of lam-by-lam matrix units, labelled "(i,j)" and "0"."""
    return matrix_units_extension(lam).carrier


def double_extension_witness(
    S: FiniteSemigroup, lam1: int, lam2: int
) -> Homomorphism:
    """The explicit isomorphism from the twice-extended semigroup to the
    single extension over lam1*lam2 indices.

    Index pairs flatten as (outer, inner) -> outer*lam1 + inner on both
    sides, which makes the witness deterministic.  The result is verified to
    be a bijective homomorphism before return.
    """
    inner = brandt_extension(S, lam1)
    outer = brandt_extension(inner.carrier, lam2)
    flat = brandt_extension(S, lam1 * lam2)

    mapping = [0]
    for a2, mid, b2 in outer.coords[1:]:
        a1, s, b1 = inner.coords[mid]
        mapping.append(flat.encode(a2 * lam1 + a1, s, b2 * lam1 + b1))
    witness = check_homomorphism(mapping, outer.carrier, flat.carrier)
    if not (witness.is_injective and witness.is_surjective):
        raise ConformanceError("double-extension witness is not bijective")
    return witness


def orthogonal_sum(parts) -> tuple[FiniteSemigroup, list[Homomorphism]]:
    """Glue semigroups with zero at a shared zero; cross products vanish.

    Returns the sum and one injection per part, each verified.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one part")
    for k, P in enumerate(parts):
        if P.zero is None:
            raise NoZero(f"part {k} has no zero")
    offsets = []
    labels = ["0"]
    total = 1
    for k, P in enumerate(parts):
        offsets.append(total)
        labels.extend(
            f"{k}.{P.labels[x]}" for x in range(P.order) if x != P.zero
        )
        total += P.order - 1

    # global index of a part element
    def glob(k, x):
        P = parts[k]
        if x == P.zero:
            return 0
        return offsets[k] + x - (x > P.zero)

    table = [[0] * total for _ in range(total)]
    for k, P in enumerate(parts):
        for x in range(P.order):
            for y in range(P.order):
                table[glob(k, x)][glob(k, y)] = glob(k, P.table[x][y])
    sum_sg = build_semigroup(table, labels, zero=0)
    injections = [
        check_homomorphism(
            [glob(k, x) for x in range(P.order)], P, sum_sg
        )
        for k, P in enumerate(parts)
    ]
    return sum_sg, injections


BICYCLIC_ZERO = "0"


def bicyclic_with_zero() -> FunctionSemigroup:
    """The monoid on pairs (i, j), meaning q^i p^j with pq = 1, plus a zero.

    (i, j)(k, l) = (i + k - min(j, k), j + l - min(j, k)); the token "0"
    absorbs and (0, 0) is the identity.
    """

    def mul(x, y):
        if x == BICYCLIC_ZERO or y == BICYCLIC_ZERO:
            return BICYCLIC_ZERO
        i, j = x
        k, l = y
        m = min(j, k)
        return (i + k - m, j + l - m)

    return FunctionSemigroup(
        name="bicyclic-with-zero", multiply=mul, zero=BICYCLIC_ZERO, identity=(0, 0)
    )


def function_brandt_extension(fs: FunctionSemigroup, lam: int) -> FunctionSemigroup:
    """Extension of a function-backed semigroup with zero; tokens are
    (a, s, b) triples over nonzero base tokens, plus the token "0"."""
    if lam < 1:
        raise ShapeError(f"lambda must be positive, got {lam}")
    base_zero = fs.zero

    def mul(x, y):
        if x == "0" or y == "0":
            return "0"
        a, s, b = x
        c, t, d = y
        if b != c:
            return "0"
        prod = fs.multiply(s, t)
        if prod == base_zero:
            return "0"
        return (a, prod, d)

    ident = None
    if lam == 1 and fs.identity is not None:
        ident = (0, fs.identity, 0)
    return FunctionSemigroup(
        name=f"extension-{lam}({fs.name})", multiply=mul, zero="0", identity=ident
    )
