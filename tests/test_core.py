import dataclasses
import enum
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandt import (
    AlgebraError,
    BadIdentity,
    BadZero,
    NonAssociative,
    NotIdempotent,
    NoZero,
    ShapeError,
    build_semigroup,
    enumerate_triples,
    maximal_subgroup,
    subsemigroup,
    with_adjoined_identity,
    with_adjoined_zero,
)
from brandt.construct import brandt_extension, matrix_units
from brandt.core import _magma_generators
from brandt.corpus import (
    b2_with_identity,
    chain,
    cyclic_group_with_zero,
    example_e,
    rect_band_with_unit_and_zero,
    two_element,
)
from reference_kernel import idempotent_order, reference_subsemigroup
from test_homs import associative_tables


def first_non_associative_triple(table):
    """Oracle: the first (i, j, k) in index order with (ij)k != i(jk), or None."""
    n = len(table)
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return (i, j, k)
    return None


def naive_closure(table, gens):
    """Oracle: add every product of two members until nothing new appears."""
    els = set(gens)
    while True:
        more = {table[a][b] for a in els for b in els} - els
        if not more:
            return els
        els |= more


def validate_against_oracle(table):
    """Check build_semigroup on one table against both oracles.

    It must reject the table exactly when the full scan finds a triple,
    with that triple as the witness, and the generators of Light's test must
    close to the whole table.  Returns whether the table was rejected.
    """
    n = len(table)
    witness = first_non_associative_triple(table)
    if witness is None:
        assert build_semigroup(table).order == n
    else:
        with pytest.raises(NonAssociative) as exc:
            build_semigroup(table)
        assert exc.value.witness == witness
    assert naive_closure(table, _magma_generators(table)) == set(range(n))
    return witness is not None


def test_singleton_table():
    S = build_semigroup([[0]])
    assert S.order == 1 and S.zero == 0 and S.identity == 0


def test_right_zero_table_has_no_identity():
    # xy = y: every element is a left identity and none is a right one
    S = build_semigroup([[0, 1, 2]] * 3)
    assert S.identity is None and S.zero is None


def test_non_associative_witness():
    with pytest.raises(NonAssociative) as exc:
        build_semigroup([[1, 0], [0, 0]])
    assert exc.value.witness == (0, 0, 1)


def test_matrix_units_table_accepted():
    b2 = matrix_units(2)
    assert b2.order == 5
    assert b2.zero == 0
    # rebuild from the raw table; zero is redetected
    again = build_semigroup(b2.table, b2.labels)
    assert again.zero == 0 and again.identity is None


def test_shape_errors():
    with pytest.raises(ShapeError):
        build_semigroup([[0, 1]])
    with pytest.raises(ShapeError):
        build_semigroup([[0, 2], [0, 0]])
    with pytest.raises(ShapeError):
        build_semigroup([[0, 1], [1, 1]], labels=["a"])
    with pytest.raises(ShapeError):
        build_semigroup([[0, 1], [1, 1]], labels=["a", "a"])


def test_declared_zero_and_identity_verified():
    with pytest.raises(BadZero):
        build_semigroup([[0, 1], [1, 1]], zero=0)
    with pytest.raises(BadIdentity):
        build_semigroup([[0, 1], [1, 1]], identity=1)
    S = build_semigroup([[0, 1], [1, 1]], zero=1, identity=0)
    assert S.zero == 1 and S.identity == 0


def test_idempotent_order_chain():
    E = example_e()
    order = idempotent_order(E)
    assert set(order.idempotents) == {0, 1, 2}
    assert order.le(2, 1) and order.le(1, 0) and order.le(2, 0)
    assert not order.le(0, 1)
    assert order.primitives == (1,)  # the middle element b


def test_idempotent_order_matrix_units_brute_force():
    b2 = matrix_units(2)
    order = idempotent_order(b2)
    # independent recomputation straight off the table
    idem = [e for e in range(5) if b2.table[e][e] == e]
    leq = {
        (e, f)
        for e in idem
        for f in idem
        if b2.table[e][f] == e and b2.table[f][e] == e
    }
    assert set(order.idempotents) == set(idem)
    assert order.pairs == leq
    nonzero = [e for e in idem if e != b2.zero]
    assert set(order.primitives) == set(nonzero)
    e11, e22 = b2.index_of("(1,1)"), b2.index_of("(2,2)")
    assert not order.le(e11, e22) and not order.le(e22, e11)


def test_idempotent_order_group_with_zero():
    G = cyclic_group_with_zero(2)
    order = idempotent_order(G)
    assert set(order.idempotents) == {G.identity, G.zero}
    assert order.primitives == (G.identity,)


def test_leq_is_partial_order():
    for S in (example_e(), matrix_units(2), cyclic_group_with_zero(3)):
        order = idempotent_order(S)
        idem = order.idempotents
        for e in idem:
            assert order.le(e, e)
        for e in idem:
            for f in idem:
                if order.le(e, f) and order.le(f, e):
                    assert e == f
                for g in idem:
                    if order.le(e, f) and order.le(f, g):
                        assert order.le(e, g)


def test_maximal_subgroup_of_monoid_identity_is_unit_group():
    G = cyclic_group_with_zero(3)
    H = maximal_subgroup(G, G.identity)
    assert set(H.members) == {0, 1, 2}
    # group laws on the members: closed, e a two-sided identity, inverses inside
    t, e, members = G.table, H.identity, set(H.members)
    assert e in members
    assert all(t[x][y] in members for x in members for y in members)
    assert all(t[e][x] == x == t[x][e] for x in members)
    assert all(
        any(t[x][y] == e == t[y][x] for y in members) for x in members
    )
    # the recorded inverses, keyed in ascending member order
    assert tuple(H.inverses) == H.members
    assert all(t[x][H.inverses[x]] == e == t[H.inverses[x]][x] for x in members)


def test_maximal_subgroup_matrix_unit_is_trivial():
    b2 = matrix_units(2)
    e = b2.index_of("(1,1)")
    H = maximal_subgroup(b2, e)
    assert H.members == (e,)


def test_maximal_subgroup_in_extension_brute_force():
    ext = brandt_extension(cyclic_group_with_zero(2), 2)
    S = ext.carrier
    e = ext.encode(0, 0, 0)
    H = maximal_subgroup(S, e)
    # independent oracle: exhaustive unit search inside eSe
    t = S.table
    local = {t[t[e][x]][e] for x in range(S.order)}
    units = {
        x
        for x in local
        if any(t[x][y] == e and t[y][x] == e for y in local)
    }
    assert set(H.members) == units
    assert len(H.members) == 2
    assert H.members == tuple(sorted(units)) == tuple(H.inverses)
    assert all(t[x][y] == e == t[y][x] for x, y in H.inverses.items())


def test_maximal_subgroup_rejects_non_idempotent():
    b2 = matrix_units(2)
    with pytest.raises(NotIdempotent):
        maximal_subgroup(b2, b2.index_of("(1,2)"))


def test_subsemigroup_requires_closure():
    b2 = matrix_units(2)
    with pytest.raises(AlgebraError) as exc:
        subsemigroup(b2, [b2.index_of("(1,2)"), b2.index_of("(2,1)")])
    assert type(exc.value) is AlgebraError
    assert str(exc.value) == "subset not closed: (1,2)*(1,2) escapes"


@pytest.mark.parametrize(
    "members, message",
    [
        ([], "empty subset"),
        ([0, 3], "member 3 out of range 0..2"),
        ([-1], "member -1 out of range 0..2"),
        ([-1, 2, 7], "member -1 out of range 0..2"),
        ([1.0], "member 1.0 is not an int"),
        ([1, 1.0], "member 1.0 is not an int"),
        (["1"], "member '1' is not an int"),
        ([0, None], "member None is not an int"),
        ([True, 2], "member True is not an int"),
    ],
)
def test_subsemigroup_rejects_bad_member_lists(members, message):
    # a negative member used to wrap around to the last element, so chain(3)
    # with [-1] blamed "x2*x2"; an empty list gave an order-0 semigroup;
    # [True, 2] was read as [1, 2], and floats, strings and None failed with
    # a bare TypeError
    S = chain(3)
    before = dict(S._memo)
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        subsemigroup(S, members)
    assert S._memo == before


def assert_subsemigroup_matches_reference(S, members):
    """subsemigroup on a fresh copy of S agrees with the two-pass reference:
    every field of a closed subset, the AlgebraError message of another."""
    fresh = dataclasses.replace(S)  # an equal instance with an empty memo
    try:
        expected = reference_subsemigroup(S, members)
    except AlgebraError as exc:
        with pytest.raises(AlgebraError) as got:
            subsemigroup(fresh, members)
        assert type(got.value) is AlgebraError and str(got.value) == str(exc)
        return False
    fields = ("order", "table", "labels", "zero", "identity")
    got = subsemigroup(fresh, members)
    assert [getattr(got, f) for f in fields] == [getattr(expected, f) for f in fields]
    return True


@given(associative_tables(), st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=100, deadline=None)
def test_subsemigroup_matches_two_pass_reference_on_random_tables(table, lam, data):
    S = build_semigroup(table)
    if S.zero is None:
        S = with_adjoined_zero(S)
    C = brandt_extension(S, lam).carrier
    for T in (S, C):
        members = data.draw(st.sets(st.integers(0, T.order - 1), min_size=1))
        assert_subsemigroup_matches_reference(T, members)
        assert assert_subsemigroup_matches_reference(T, naive_closure(T.table, members))


def test_subsemigroup_matches_two_pass_reference_at_rank_six():
    C = brandt_extension(cyclic_group_with_zero(8), 6)
    rng = random.Random(6)
    closed = 0
    for a in range(6):
        block = [0] + [C.encode(a, s, a) for s in C.nonzero_base]
        closed += assert_subsemigroup_matches_reference(C.carrier, block)
        row = [0] + [C.encode(a, s, b) for b in range(6) for s in C.nonzero_base]
        closed += assert_subsemigroup_matches_reference(C.carrier, row)
    for _ in range(20):
        members = rng.sample(range(C.carrier.order), rng.randint(1, 40))
        closed += assert_subsemigroup_matches_reference(C.carrier, members)
    assert closed >= 12


def test_adjoined_identity_and_zero():
    b2 = matrix_units(2)
    S = with_adjoined_identity(b2)
    assert S.identity == 5 and S.zero == 0
    T = with_adjoined_zero(S, label="z")
    assert T.zero == 6
    # the old zero is no longer absorbing
    assert T.table[0][6] == 6


@st.composite
def random_tables(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return [
        [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n)]
        for _ in range(n)
    ]


@given(random_tables())
@settings(max_examples=200, deadline=None)
def test_validation_matches_direct_associativity_check(table):
    validate_against_oracle(table)


# Extension carriers of orders 10 to 73.
LIGHT_TEST_CARRIERS = [
    (two_element(), 3),
    (chain(4), 2),
    (two_element(), 4),
    (cyclic_group_with_zero(2), 3),
    (rect_band_with_unit_and_zero(), 2),
    (b2_with_identity(), 2),
    (cyclic_group_with_zero(3), 3),
    (rect_band_with_unit_and_zero(), 3),
    (cyclic_group_with_zero(8), 3),
]


def test_light_test_matches_full_scan_on_perturbed_tables(relabeled):
    rng = random.Random(5)
    rejected = 0
    for base, lam in LIGHT_TEST_CARRIERS:
        C = relabeled(brandt_extension(base, lam).carrier, rng)
        n = C.order
        assert not validate_against_oracle(C.table)
        for _ in range(3):
            table = [list(row) for row in C.table]
            i, j = rng.randrange(n), rng.randrange(n)
            table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
            rejected += validate_against_oracle(table)
    assert rejected > 0


def test_light_test_generators_stay_few(relabeled):
    # A deterministic bound on the validation work: C8^0 at rank 6 (order
    # 289) must be generated by at most a tenth of its elements, whatever
    # the labels; the full O(n^3) scan would correspond to n generators.
    C = brandt_extension(cyclic_group_with_zero(8), 6).carrier
    rng = random.Random(11)
    for S in (C, relabeled(C, rng), relabeled(C, rng)):
        assert len(_magma_generators(S.table)) <= S.order // 10


def first_failure_reading_cell(table, i, j):
    """Oracle: the first non-associative triple of a table that is
    associative except at cell (i, j), or None.

    A triple (x, y, z) reads the cells (x, y), (y, z), (x*y, z) and
    (x, y*z); one that reads none of them as (i, j) computes what the
    associative table computes.  So only the triples with (x, y) = (i, j),
    (y, z) = (i, j), (x*y, z) = (i, j) or (x, y*z) = (i, j) can fail, and
    scanning them in index order costs O(n^2) instead of O(n^3).
    """
    n = len(table)
    rng = range(n)
    candidates = {(i, j, z) for z in rng} | {(x, i, j) for x in rng}
    candidates |= {(x, y, j) for x in rng for y in rng if table[x][y] == i}
    candidates |= {(i, y, z) for y in rng for z in rng if table[y][z] == j}
    for x, y, z in sorted(candidates):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return (x, y, z)
    return None


@pytest.mark.parametrize("k", [255, 256])
def test_light_test_on_both_sides_of_the_byte_row_cutoff(k, relabeled):
    # Orders 256 and 257: tables of order <= 256 compose rows as bytes, the
    # larger ones through itemgetter.  Both must accept the associative
    # tables and name the first failing triple of each planted defect.
    rng = random.Random(k)
    base = cyclic_group_with_zero(k)
    assert base.order == k + 1
    for S in (base, relabeled(base, rng)):
        n = S.order
        assert build_semigroup(S.table).order == n
        for _ in range(3):
            table = [list(row) for row in S.table]
            i, j = rng.randrange(n), rng.randrange(n)
            table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
            witness = first_failure_reading_cell(table, i, j)
            assert witness is not None
            with pytest.raises(NonAssociative) as exc:
                build_semigroup(table)
            assert exc.value.witness == witness


class Entry(enum.IntEnum):
    A = 0
    B = 1
    C = 2
    D = 3


@given(random_tables())
@settings(max_examples=200, deadline=None)
def test_bool_and_int_enum_entries_validate_as_their_ints(table):
    # bools and IntEnum members pass the isinstance(v, int) shape check, so
    # Light's test must read them as the ints they are
    tables = [[[Entry(v) for v in row] for row in table]]
    if len(table) <= 2:
        tables.append([[bool(v) for v in row] for row in table])
    witness = first_non_associative_triple(table)
    for t in tables:
        if witness is None:
            S = build_semigroup(t)
            assert S.table == tuple(map(tuple, table))
            assert S.generators == build_semigroup(table).generators
        else:
            with pytest.raises(NonAssociative) as exc:
                build_semigroup(t)
            assert exc.value.witness == witness


def test_bool_and_int_enum_entries_out_of_range_are_shape_errors():
    assert build_semigroup([[False]]).table == ((0,),)
    with pytest.raises(ShapeError, match=re.escape("row 0 entry True out of range 0..0")):
        build_semigroup([[True]])
    with pytest.raises(ShapeError, match=re.escape("row 1 entry <Entry.C: 2> out of range 0..1")):
        build_semigroup([[Entry.A, Entry.B], [Entry.B, Entry.C]])


@given(st.integers(min_value=2, max_value=6))
def test_chain_structure(n):
    S = chain(n)
    assert S.identity == 0 and S.zero == n - 1
    order = idempotent_order(S)
    assert len(order.idempotents) == n
    assert order.primitives == (n - 2,)


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: build_semigroup([[0, 0], [0, 1]], zero=2), BadZero, "zero index 2 out of range"),
        (
            lambda: build_semigroup([[0, 0], [0, 1]], identity=-1),
            BadIdentity,
            "identity index -1 out of range",
        ),
        (lambda: build_semigroup([]), ShapeError, "empty table"),
        # C2 is a monoid without a zero
        (
            lambda: enumerate_triples(build_semigroup([[0, 1], [1, 0]]), chain(3), 1, 1),
            NoZero,
            "source base has no zero",
        ),
    ],
    ids=["zero-range", "identity-range", "empty", "no-zero"],
)
def test_declarations_and_shapes_rejected_by_message(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
