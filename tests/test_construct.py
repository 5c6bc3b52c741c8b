import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandt import (
    NoZero,
    ShapeError,
    build_semigroup,
    iso_search,
    subsemigroup,
    with_adjoined_zero,
)
from brandt.classify import classify
from brandt.construct import (
    _extension_table,
    bicyclic_with_zero,
    brandt_extension,
    double_extension_witness,
    function_brandt_extension,
    matrix_units,
    matrix_units_extension,
    orthogonal_sum,
)
from brandt.corpus import (
    acceptance_corpus,
    b2_with_identity,
    chain,
    cyclic_group_with_zero,
    example_e,
    rect_band_with_unit_and_zero,
    two_element,
)
from brandt.homs import check_homomorphism
from reference_kernel import (
    _definitional_coords,
    reference_extension_labels,
    reference_extension_table,
    reference_is_inverse,
    reference_is_primitive_inverse,
)
from test_homs import associative_tables


def test_rank_below_one_is_a_shape_error():
    for lam in (0, -1):
        with pytest.raises(ShapeError):
            brandt_extension(example_e(), lam)
        with pytest.raises(ShapeError):
            matrix_units_extension(lam)
        with pytest.raises(ShapeError):
            function_brandt_extension(bicyclic_with_zero(), lam)


def test_lambda_one_is_the_base():
    E = example_e()
    ext = brandt_extension(E, 1)
    assert ext.carrier.order == E.order
    mapping = [ext.zero] * E.order
    for s in range(E.order):
        if s != E.zero:
            mapping[s] = ext.encode(0, s, 0)
    hom = check_homomorphism(mapping, E, ext.carrier)
    assert hom.is_injective and hom.is_surjective


def test_two_element_extension_is_matrix_units():
    ext = brandt_extension(two_element(), 2)
    assert ext.carrier.table == matrix_units(2).table


def test_matrix_units_small_ranks():
    b1 = matrix_units(1)
    assert b1.order == 2
    assert iso_search(b1, two_element()) is not None
    b3 = matrix_units(3)
    assert b3.order == 10
    assert b3.labels[0] == "0" and "(3,3)" in b3.labels


def test_order_formula():
    S = example_e()
    for lam in (1, 2, 3):
        ext = brandt_extension(S, lam)
        assert ext.carrier.order == lam * lam * (S.order - 1) + 1
    assert brandt_extension(chain(3), 2).carrier.order == 9


def test_requires_zero():
    G = build_semigroup([[0, 1], [1, 0]])
    with pytest.raises(NoZero):
        brandt_extension(G, 2)


def test_product_law_and_coordinates(relabeled):
    # the definition: zero at 0, then (a, s, b) in (a, b, s) order, and
    # (a, s, b)(c, u, d) = (a, su, d) when b = c and su is nonzero; the
    # tabulated coords, block positions and block starts follow it, and a
    # coordinate or index outside the extension raises ValueError
    rng = random.Random(6)
    bases = list(acceptance_corpus().values()) + [
        cyclic_group_with_zero(3),
        rect_band_with_unit_and_zero(),
        b2_with_identity(),
    ]
    moved = [relabeled(S, rng) for S in bases]
    assert all(R.zero != R.order - 1 for R in moved)
    for S in bases + moved:
        nonzero = [s for s in range(S.order) if s != S.zero]
        for lam in (1, 2, 3):
            ext = brandt_extension(S, lam)
            coords = [
                (a, s, b) for a in range(lam) for b in range(lam) for s in nonzero
            ]
            index = {c: i for i, c in enumerate(coords, start=1)}
            t = ext.carrier.table
            assert ext.carrier.order == len(coords) + 1
            assert ext.carrier.zero == 0
            assert all(t[0][i] == 0 == t[i][0] for i in range(len(t)))
            assert ext.coords == (None, *coords)
            assert ext.position == tuple(
                None if s == S.zero else nonzero.index(s) for s in range(S.order)
            )
            assert ext.block_starts == tuple(
                tuple(index[(a, nonzero[0], b)] for b in range(lam)) for a in range(lam)
            )
            top = nonzero[-1]
            for outside in [
                (0, top, lam), (lam, top, 0), (-1, top, 0), (0, top, -1),
                (0, S.zero, 0), (0, S.order, 0), (0, -1, 0),
            ]:
                with pytest.raises(ValueError):
                    ext.encode(*outside)
            for i in (0, -1, ext.carrier.order, ext.carrier.order + 3):
                with pytest.raises(ValueError):
                    ext.decode(i)
            for (a, s, b), i in index.items():
                assert ext.decode(i) == (a, s, b)
                assert ext.encode(a, s, b) == i
                for (c, u, d), j in index.items():
                    prod = S.table[s][u]
                    want = 0 if b != c or prod == S.zero else index[(a, prod, d)]
                    assert t[i][j] == want


def assert_matches_validated(C, zero=None):
    """C, built without Light's test, equals the validated build of its
    table and labels in every field, its generators included."""
    V = build_semigroup(C.table, C.labels, zero=zero)
    fields = ("order", "table", "labels", "zero", "identity", "generators")
    assert [getattr(C, f) for f in fields] == [getattr(V, f) for f in fields]


def test_extension_carriers_match_their_validated_builds():
    bases = list(acceptance_corpus().values()) + [
        chain(4),
        cyclic_group_with_zero(3),
        rect_band_with_unit_and_zero(),
        b2_with_identity(),
    ]
    for S in bases:
        for lam in (1, 2, 3):
            assert_matches_validated(brandt_extension(S, lam).carrier, zero=0)


def assert_extension_matches_reference(S, lam):
    """The row-built carrier of the extension of S equals the cell-by-cell
    reference in table and labels, keeps its zero at 0, has the identity the
    definition gives, and lists its coordinates in the definitional order."""
    ext = brandt_extension(S, lam)
    C = ext.carrier
    assert C.table == _extension_table(S, lam) == reference_extension_table(S, lam)
    assert C.labels == reference_extension_labels(S, lam)
    rng = range(C.order)
    identities = [e for e in rng if all(C.table[e][x] == x == C.table[x][e] for x in rng)]
    assert (C.zero, C.identity) == (0, identities[0] if identities else None)
    assert ext.coords[1:] == tuple(_definitional_coords(ext))


@given(associative_tables(), st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_row_built_extension_matches_cell_by_cell_reference(table, lam):
    S = build_semigroup(table)
    if S.zero is None:
        S = with_adjoined_zero(S)
    assert_extension_matches_reference(S, lam)


def test_row_built_extension_matches_reference_on_the_corpus_and_at_rank_six():
    # the one-element base has no nonzero elements, so every block is empty
    for S in [build_semigroup([[0]]), *acceptance_corpus().values()]:
        for lam in (1, 2, 3, 4):
            assert_extension_matches_reference(S, lam)
    assert_extension_matches_reference(cyclic_group_with_zero(8), 6)


def test_extension_labels_are_still_checked():
    S = chain(3)  # the rank-2 carrier has 9 elements
    good = ["0"] + [f"x{i}" for i in range(8)]
    assert brandt_extension(S, 2, carrier_labels=good).carrier.labels == tuple(good)
    for labels in (good[:-1], good + ["x8"], good[:-1] + ["x0"]):
        with pytest.raises(ShapeError):
            brandt_extension(S, 2, carrier_labels=labels)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_encode_decode_roundtrip(data):
    S = example_e()
    lam = data.draw(st.integers(min_value=1, max_value=3))
    ext = brandt_extension(S, lam)
    idx = data.draw(st.integers(min_value=1, max_value=ext.carrier.order - 1))
    a, s, b = ext.decode(idx)
    assert ext.encode(a, s, b) == idx
    assert 0 <= a < lam and 0 <= b < lam and s != S.zero


def test_diagonal_block_is_a_copy_of_the_base():
    S = example_e()
    ext = brandt_extension(S, 2)
    for a in range(2):
        block = [0] + [ext.encode(a, s, a) for s in ext.nonzero_base]
        sub = subsemigroup(ext.carrier, block)
        assert iso_search(sub, S) is not None


def test_ideal_transfers_to_extension():
    S = example_e()
    ext = brandt_extension(S, 2)
    # {b, c} is an ideal of the chain a > b > c
    ideal = {1, 2}
    assert all(
        S.table[x][i] in ideal and S.table[i][x] in ideal
        for i in ideal
        for x in range(S.order)
    )
    image = {0} | {
        ext.encode(a, s, b)
        for a in range(2)
        for b in range(2)
        for s in ideal
        if s != S.zero
    }
    t = ext.carrier.table
    for i in image:
        for x in range(ext.carrier.order):
            assert t[x][i] in image and t[i][x] in image


def test_extension_warning_flag_for_non_monoid_base():
    b2 = matrix_units(2)
    glued, _ = orthogonal_sum([b2, b2])
    assert glued.identity is None
    ext = brandt_extension(glued, 2)
    assert ext.base.identity is None


def test_double_extension_examples():
    S = example_e()
    w = double_extension_witness(S, 1, 1)
    assert w.source.order == S.order == w.target.order
    w = double_extension_witness(two_element(), 2, 2)
    assert w.source.order == 17 == w.target.order
    w = double_extension_witness(S, 2, 1)
    assert w.source.order == 9 == w.target.order
    assert w.is_injective and w.is_surjective


def test_orthogonal_sum_single_part():
    b2 = matrix_units(2)
    total, injs = orthogonal_sum([b2])
    assert total.order == b2.order
    assert iso_search(total, b2) is not None
    assert injs[0].is_injective


def test_orthogonal_sum_of_two_matrix_units():
    b2 = matrix_units(2)
    total, injs = orthogonal_sum([b2, b2])
    assert total.order == 9
    for inj in injs:
        assert inj.is_injective
    # cross products vanish
    t = total.table
    left = set(injs[0].mapping) - {0}
    right = set(injs[1].mapping) - {0}
    assert all(t[x][y] == 0 and t[y][x] == 0 for x in left for y in right)


def test_orthogonal_sum_requires_zeros():
    G = build_semigroup([[0, 1], [1, 0]])
    with pytest.raises(NoZero):
        orthogonal_sum([G])


def test_structure_transfer_to_extensions():
    for S in (two_element(), chain(3), example_e(), cyclic_group_with_zero(2)):
        for lam in (1, 2, 3):
            ext = brandt_extension(S, lam).carrier
            base, extended = classify(S), classify(ext)
            assert extended.regular == base.regular
            assert extended.inverse == base.inverse == reference_is_inverse(ext)


def test_primitive_inverse_check_pairs():
    # the primitive-inverse flag of a base and of its extension
    for S, lam, flag in (
        (cyclic_group_with_zero(2), 2, True),
        (chain(3), 2, False),
        (two_element(), 3, True),
    ):
        ext = brandt_extension(S, lam).carrier
        assert classify(S).primitive_inverse is flag
        assert classify(ext).primitive_inverse is flag == reference_is_primitive_inverse(ext)


def test_bicyclic_relations():
    C = bicyclic_with_zero()
    p, q = (0, 1), (1, 0)
    assert C.multiply(p, q) == (0, 0)
    assert C.multiply(q, p) == (1, 1)
    assert C.multiply((1, 1), (1, 1)) == (1, 1)
    assert C.multiply(C.zero, (3, 2)) == C.zero
    assert C.multiply((3, 2), C.zero) == C.zero
    assert C.multiply(C.identity, (5, 7)) == (5, 7)


@given(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
)
def test_bicyclic_associative(x, y, z):
    C = bicyclic_with_zero()
    assert C.multiply(C.multiply(x, y), z) == C.multiply(x, C.multiply(y, z))


def test_function_extension_product_rule():
    C = bicyclic_with_zero()
    ext = function_brandt_extension(C, 2)
    a = (0, (0, 1), 1)
    b = (1, (1, 0), 0)
    assert ext.multiply(a, b) == (0, (0, 0), 0)
    assert ext.multiply(a, a) == ext.zero
    assert ext.multiply(ext.zero, a) == ext.zero
