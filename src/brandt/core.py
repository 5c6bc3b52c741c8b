"""Finite semigroups as Cayley tables, plus the structural basics built on them.

Elements are integer indices into a square multiplication table; labels are
display-only.  All objects are immutable after construction.  A
FiniteSemigroup also memoizes what is derived from it (subsemigroups, maximal
subgroups, matrix-unit flags) in a dict outside its fields, so equality,
hashing and repr ignore it.  Each entry is a function of the semigroup's
value alone and refers back to no semigroup, so equal semigroups may share
one memo: the extension carriers one base builds at one lam with the
default labels do (``construct.brandt_extension``), and every other
semigroup has a dict of its own.  The memo holds only immutable values and
the memos of other semigroups, never a failed call, so sharing a semigroup
across threads is safe: two threads that race on one entry compute it twice
and one result is kept.

Every table from outside is checked for associativity by Light's test:
(x*a)*y = x*(a*y) is checked only for a in a set A that generates the table
as a magma, which costs O(n^2 * |A|) instead of O(n^3).  The test is exact,
because the elements a that pass it are closed under the product.  Only when
it fails is the full scan run, so that the reported witness is the first
failing triple (i, j, k) in index order.  For each a the test compares row
x*a with row a read through row x, for every x.  Up to order 256 every
entry fits in a byte, and the read is one ``bytes.translate`` of row a
through row x padded to 256 bytes; above that it is an ``itemgetter`` of
row a's entries applied to row x.  Both compute the same products x*(a*y),
so the verdict and the witness do not depend on which one runs.

Tables that are associative by construction from a validated input skip the
test and go through ``_trusted_semigroup``: a closed subset of a semigroup
(``subsemigroup``), the Brandt extension table of a semigroup with zero
(``construct.brandt_extension``), and a legend-carrying file whose table
equals the extension of its validated (0, 0) block
(``sgpfile.read_extension``).  A product-closed subset inherits
associativity, and the extension product is associative whenever the base
product is, so checking these tables again could never fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence


class AlgebraError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(AlgebraError):
    pass


class NonAssociative(AlgebraError):
    """The table fails associativity; carries the first witnessing triple."""

    def __init__(self, i: int, j: int, k: int):
        self.witness = (i, j, k)
        super().__init__(
            f"not associative: witness ({i},{j},{k}) has (i*j)*k != i*(j*k)"
        )


class BadZero(AlgebraError):
    pass


class BadIdentity(AlgebraError):
    pass


class NotIdempotent(AlgebraError):
    pass


class NoZero(AlgebraError):
    pass


class NoIdentity(AlgebraError):
    pass


class BudgetExceeded(AlgebraError):
    pass


class Mismatch(AlgebraError):
    pass


class TrivialInput(AlgebraError):
    pass


class IllFormedTriple(AlgebraError):
    pass


class HypothesisUnmet(AlgebraError):
    """A conformance check was skipped because its hypotheses do not hold."""


class ConformanceError(AlgebraError):
    """A guaranteed structural fact failed to verify; indicates a bug."""


class NotHomomorphism(AlgebraError):
    """The map breaks the product law; carries the first witnessing pair."""

    def __init__(self, i: int, j: int, detail: str = ""):
        self.witness = (i, j)
        msg = f"product law fails at pair ({i},{j})"
        super().__init__(msg + (": " + detail if detail else ""))


class ParseError(AlgebraError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class cached_property:
    """A property computed on its first read and kept in the instance dict.

    ``functools.cached_property`` without the lock: before Python 3.12 it
    takes an RLock on every first read (removed by CPython gh-87634).  Two
    threads racing on one instance may both compute the value; ``setdefault``
    keeps the first one stored, and every reader gets that object.  It
    defines no ``__set__``, so a value already in the instance dict is read
    without calling the function.  Frozen dataclasses can use it, as it
    writes to ``__dict__`` directly.
    """

    def __init__(self, func: Callable):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.name, self.func(instance))


@dataclass(frozen=True)
class FiniteSemigroup:
    """A semigroup on {0..order-1} given by its full multiplication table."""

    order: int
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    zero: Optional[int] = None
    identity: Optional[int] = None

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    @cached_property
    def idempotents(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.order) if self.table[e][e] == e)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The generating set of ``_magma_generators``, computed once.

        ``build_semigroup`` fills it with the set it ran Light's test over;
        ``check_homomorphism`` checks the Cayley edges to these elements.
        """
        return _magma_generators(self.table)

    @cached_property
    def _memo(self) -> dict:
        """Derived structures by (kind, argument) key; see ``_memoized``.
        ``construct.brandt_extension`` fills it with a dict it shares."""
        return {}

    def __repr__(self) -> str:
        bits = [f"order={self.order}"]
        if self.zero is not None:
            bits.append(f"zero={self.labels[self.zero]!r}")
        if self.identity is not None:
            bits.append(f"identity={self.labels[self.identity]!r}")
        return f"FiniteSemigroup({', '.join(bits)})"


@dataclass(frozen=True)
class FunctionSemigroup:
    """A semigroup given by a computable multiplication on opaque tokens.

    Used for infinite carriers; only supports pointwise product evaluation,
    never enumeration.  ``multiply`` must be total on the tokens a caller
    actually feeds it, and ``zero`` must absorb.
    """

    name: str
    multiply: Callable
    zero: object
    identity: object = None

    def __repr__(self) -> str:
        return f"FunctionSemigroup({self.name!r})"


def _find_associativity_witness(table) -> Optional[tuple[int, int, int]]:
    n = len(table)
    rng = range(n)
    for i in rng:
        ti = table[i]
        for j in rng:
            tij = table[ti[j]]
            tj = table[j]
            for k in rng:
                if tij[k] != ti[tj[k]]:
                    return (i, j, k)
    return None


def _grow_closure(table, members: list, gens, x: int) -> list:
    """Close ``members`` together with ``x`` along right Cayley edges, in place.

    ``members`` must be the closure of ``gens`` and must not contain ``x``.
    In a semigroup every new element is a word u*x*v, u a word in ``gens``
    or empty and v a word in ``gens`` and x, so the new elements are x and
    each m*x (m a member), multiplied on the right by ``gens`` and x until
    nothing new appears (Froidure and Pin, 1997).  Growing by k elements
    costs |members| + k*(|gens| + 1) products.  On a table that is not
    associative the result lies inside the magma closure, and may miss
    some of it.  Returns ``members``, in order of joining.
    """
    inside = set(members)
    inside.add(x)
    i = len(members)
    members.append(x)
    for m in members[:i]:
        p = table[m][x]
        if p not in inside:
            inside.add(p)
            members.append(p)
    right = [*gens, x]
    while i < len(members):
        row = table[members[i]]
        i += 1
        for g in right:
            p = row[g]
            if p not in inside:
                inside.add(p)
                members.append(p)
    return members


def _magma_generators(table) -> tuple[int, ...]:
    """A set generating the table under its product, found in index order.

    Walks the elements in ascending order; one that is not yet in the
    closure of the generators so far becomes a generator.  The closure is
    grown along right Cayley edges (``_grow_closure``), so the walk costs
    O(n * |A|) products for |A| generators.  On an associative table that
    closure is the subsemigroup the generators generate.  On any other it
    lies inside their magma closure, so an element it misses becomes a
    generator itself, and the result still generates the table as a magma.
    That is all Light's test needs: the elements a with (x*a)*y = x*(a*y)
    for all x, y are closed under the product, so the test stays exact and
    ``build_semigroup`` rejects exactly the tables that are not associative.
    """
    gens: list[int] = []
    members: list[int] = []
    inside: set = set()
    for x in range(len(table)):
        if x not in inside:
            inside.update(_grow_closure(table, members, gens, x))
            gens.append(x)
    return tuple(gens)


def _memoized(S: FiniteSemigroup, key, compute: Callable, *args):
    """``S._memo[key]``, calling ``compute(*args)`` to fill it on first use.

    A call that raises stores nothing, so it raises again next time.
    """
    memo = S._memo
    try:
        return memo[key]
    except KeyError:
        return memo.setdefault(key, compute(*args))


def _tuple_getter(indices: Sequence[int]) -> Callable:
    """``itemgetter(*indices)``, which returns a tuple for one index too."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def _sorted_elements(S: FiniteSemigroup, xs: Iterable, what: str) -> tuple:
    """The elements xs of S in ascending order, without repeats.

    Raises ShapeError, naming ``what``, at the first x that is not an int (a
    bool, a float, a string, None), then at the least or else the greatest
    x outside range(S.order).
    """
    xs = tuple(xs)
    if not {int}.issuperset(map(type, xs)):  # in C, stops at the first
        bad = next(x for x in xs if type(x) is not int)
        raise ShapeError(f"{what} {bad!r} is not an int")
    xs = tuple(sorted(set(xs)))
    if xs and (xs[0] < 0 or xs[-1] >= S.order):
        bad = xs[0] if xs[0] < 0 else xs[-1]
        raise ShapeError(f"{what} {bad} out of range 0..{S.order - 1}")
    return xs


def _is_zero(table, z: int) -> bool:
    return table[z].count(z) == len(table) and all(row[z] == z for row in table)


def _is_identity(table, e: int, indices: tuple[int, ...]) -> bool:
    """e is a two-sided identity; ``indices`` is ``tuple(range(len(table)))``."""
    return table[e] == indices and all(row[e] == i for i, row in enumerate(table))


def _trusted_semigroup(
    table: tuple[tuple[int, ...], ...],
    labels: Optional[Sequence[str]] = None,
    zero: Optional[int] = None,
    identity: Optional[int] = None,
) -> FiniteSemigroup:
    """Wrap a square tuple-of-tuples table known to be associative.

    The cells are not scanned and Light's test is not run; callers pass
    only tables in range and associative by construction (see the module
    docstring), and ``build_semigroup`` passes the tables it validated.
    Labels are checked for count and duplicates.  Zero and identity are
    verified when declared and auto-detected when not; both are unique
    whenever they exist, so detection is unambiguous.  ``generators`` is
    computed on first use.
    """
    n = len(table)
    if labels is None:
        labels = tuple(f"e{i}" for i in range(n))
    else:
        labels = tuple(map(str, labels))
        if len(labels) != n:
            raise ShapeError(f"{len(labels)} labels for {n} elements")
        if len(set(labels)) != n:
            raise ShapeError("duplicate labels")

    if zero is None:
        zero = next((z for z in range(n) if _is_zero(table, z)), None)
    elif not (0 <= zero < n):
        raise BadZero(f"zero index {zero} out of range")
    elif not _is_zero(table, zero):
        raise BadZero(f"element {labels[zero]!r} is not absorbing")

    indices = tuple(range(n))
    if identity is None:
        # a two-sided identity is the only left identity, so the first row
        # equal to ``indices`` is the one candidate
        e = table.index(indices) if indices in table else None
        if e is not None and _is_identity(table, e, indices):
            identity = e
    elif not (0 <= identity < n):
        raise BadIdentity(f"identity index {identity} out of range")
    elif not _is_identity(table, identity, indices):
        raise BadIdentity(f"element {labels[identity]!r} is not an identity")

    return FiniteSemigroup(order=n, table=table, labels=labels, zero=zero, identity=identity)


def build_semigroup(
    table: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
    zero: Optional[int] = None,
    identity: Optional[int] = None,
) -> FiniteSemigroup:
    """Validate a Cayley table and wrap it as a FiniteSemigroup.

    Associativity is checked by Light's test over the magma generators of
    ``_magma_generators``, in O(n^2 * |A|) for |A| generators: n row
    compositions per generator, each a C-level byte gather up to order 256
    and an ``itemgetter`` read above it.  When it fails, NonAssociative
    carries the first triple (i, j, k) in index order with
    (i*j)*k != i*(j*k), found by the full scan.  Labels, zero and identity
    are then checked as in ``_trusted_semigroup``.
    """
    n = len(table)
    if n == 0:
        raise ShapeError("empty table")
    rows = []
    for r, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise ShapeError(f"row {r} has length {len(row)}, expected {n}")
        for v in row:
            if not isinstance(v, int) or not (0 <= v < n):
                raise ShapeError(f"row {r} entry {v!r} out of range 0..{n - 1}")
        rows.append(row)
    tab = tuple(rows)

    # (x*a)*y = x*(a*y) for all y says that row x*a is row a read through
    # row x.  Up to order 256 every entry fits in a byte, and row x padded
    # to 256 bytes is a translation table for that read.
    gens = _magma_generators(tab)
    if n <= 256:
        byte_rows = [bytes(row) for row in tab]
        pad = bytes(256 - n)
        through = [row + pad for row in byte_rows]
        for a in gens:
            ra = byte_rows[a]
            for tx in through:
                if byte_rows[tx[a]] != ra.translate(tx):
                    raise NonAssociative(*_find_associativity_witness(tab))
    else:
        for a in gens:
            through_a = itemgetter(*tab[a])
            for tx in tab:
                if tab[tx[a]] != through_a(tx):
                    raise NonAssociative(*_find_associativity_witness(tab))

    S = _trusted_semigroup(tab, labels, zero=zero, identity=identity)
    S.__dict__["generators"] = gens  # fills the cached property
    return S


def subsemigroup(S: FiniteSemigroup, members: Iterable[int]) -> FiniteSemigroup:
    """Restrict S to a product-closed subset, reindexed in ascending order.

    A member that is not an int (a bool, a float, a string, None) raises
    ShapeError before the memo is read, as do an empty subset and a member
    outside range(S.order).  The subset is then built by
    ``_subsemigroup``, once per subset of S; later calls return that
    object.
    """
    members = _sorted_elements(S, members, "member")
    if not members:
        raise ShapeError("empty subset")
    return _subsemigroup(S, members)


def _subsemigroup(S: FiniteSemigroup, members: tuple[int, ...]) -> FiniteSemigroup:
    """``subsemigroup`` on a non-empty tuple of members that is sorted,
    without repeats and inside range(S.order), which is not checked.

    Each row is the ambient row's member columns, read at once and
    reindexed through the member positions; a product outside the subset
    has no position, and only then are the pairs scanned in row order for
    the first that escapes, which the AlgebraError names.  Associativity is
    inherited from S, so the table is not validated again.  Memoized on S
    by the members.
    """

    def build():
        table = S.table
        pos = {x: i for i, x in enumerate(members)}
        pick = _tuple_getter(members)
        try:
            sub = tuple(tuple(map(pos.__getitem__, pick(table[x]))) for x in members)
        except KeyError:
            x, y = next((x, y) for x in members for y in members if table[x][y] not in pos)
            raise AlgebraError(
                f"subset not closed: {S.labels[x]}*{S.labels[y]} escapes"
            ) from None
        return _trusted_semigroup(sub, tuple(S.labels[x] for x in members))

    return _memoized(S, ("subsemigroup", members), build)


def with_adjoined_identity(S: FiniteSemigroup, label: str = "1") -> FiniteSemigroup:
    """Adjoin a fresh identity element at the last index."""
    n = S.order
    table = [list(row) + [i] for i, row in enumerate(S.table)]
    table.append(list(range(n + 1)))
    return build_semigroup(table, S.labels + (label,), zero=S.zero, identity=n)


def with_adjoined_zero(S: FiniteSemigroup, label: str = "0") -> FiniteSemigroup:
    """Adjoin a fresh absorbing element at the last index.

    Any previous zero of S stops being absorbing in the result.
    """
    n = S.order
    table = [list(row) + [n] for row in S.table]
    table.append([n] * (n + 1))
    return build_semigroup(table, S.labels + (label,), zero=n, identity=S.identity)


def require_monoid_with_zero(S: FiniteSemigroup, what: str = "semigroup"):
    if S.zero is None:
        raise NoZero(f"{what} has no zero")
    if S.identity is None:
        raise NoIdentity(f"{what} has no identity")


@dataclass(frozen=True)
class MaximalSubgroup:
    """The largest subgroup of the ambient semigroup with a given identity:
    its ``members`` in ascending order and the ``inverses`` of each."""

    identity: int
    members: tuple[int, ...]
    inverses: Mapping[int, int] = field(compare=False)


def maximal_subgroup(S: FiniteSemigroup, e: int) -> MaximalSubgroup:
    """H(e) computed as the group of units of the local monoid eSe, once per e."""
    t = S.table

    def build():
        if t[e][e] != e:
            raise NotIdempotent(f"element {S.labels[e]!r} is not idempotent")
        local = sorted({t[t[e][x]][e] for x in range(S.order)})
        # a unit of eSe has one inverse there, so no key is written twice
        inverses = {x: y for x in local for y in local if t[x][y] == e == t[y][x]}
        return MaximalSubgroup(e, tuple(inverses), MappingProxyType(inverses))

    return _memoized(S, ("maximal_subgroup", e), build)
