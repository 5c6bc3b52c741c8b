from hypothesis import given, settings

from brandt import build_semigroup, classify
from brandt.classify import idempotents_central, is_regular
from brandt.construct import brandt_extension, matrix_units
from brandt.corpus import (
    acceptance_corpus,
    b2_with_identity,
    chain,
    cyclic_group_with_zero,
    example_e,
    rect_band_with_unit_and_zero,
    two_element,
)
from conftest import associative_tables, small_semigroups
from reference_kernel import (
    reference_identity,
    reference_is_clifford,
    reference_is_inverse,
    reference_is_primitive_inverse,
)

CORPUS = [
    two_element(),
    chain(3),
    example_e(),
    cyclic_group_with_zero(2),
    matrix_units(2),
    rect_band_with_unit_and_zero(),
]


def test_semilattice_report():
    r = classify(example_e(), lambdas=(2,))
    assert r.monoid_with_zero and r.inverse and r.clifford
    assert r.idempotents_central and r.classifiable_target
    assert r.blambda_free[2] is True
    assert not r.primitive_inverse


def test_matrix_units_not_clifford():
    b2 = matrix_units(2)
    r = classify(b2)
    assert r.inverse and not r.clifford
    # the witnessing pair: (1,2)(2,1) = (1,1) while (2,1)(1,2) = (2,2)
    i12, i21 = b2.index_of("(1,2)"), b2.index_of("(2,1)")
    assert b2.table[i12][i21] == b2.index_of("(1,1)")
    assert b2.table[i21][i12] == b2.index_of("(2,2)")
    assert r.primitive_inverse and r.congruence_free
    assert not r.b2_free and not r.classifiable_target


def test_rect_band_with_unit_and_zero():
    T = rect_band_with_unit_and_zero()
    r = classify(T)
    assert r.regular and not r.inverse and not r.idempotents_central
    # independent oracle: some element has several generalized inverses
    t = T.table
    multiple = False
    for x in range(T.order):
        ys = [
            y
            for y in range(T.order)
            if t[t[x][y]][x] == x and t[t[y][x]][y] == y
        ]
        if len(ys) > 1:
            multiple = True
    assert multiple


def test_group_with_zero_report():
    r = classify(cyclic_group_with_zero(2), lambdas=(2, 3))
    assert r.monoid_with_zero and r.inverse and r.clifford
    assert r.primitive_inverse and r.classifiable_target
    assert r.blambda_free[2] is True and r.blambda_free[3] is True


def test_implication_chain():
    for S in CORPUS:
        r = classify(S)
        if r.clifford:
            assert r.inverse
        if r.inverse:
            assert r.regular


def test_flags_on_extensions_match_helpers():
    for S in (two_element(), example_e()):
        ext = brandt_extension(S, 2).carrier
        r = classify(ext)
        assert r.regular == is_regular(ext)
        assert r.inverse == reference_is_inverse(ext)
        assert r.idempotents_central == idempotents_central(ext)


def test_congruence_flag_none_above_bound():
    big = brandt_extension(chain(4), 4).carrier  # order 49
    r = classify(big)
    assert r.congruence_free is None


def test_no_zero_caveat():
    from brandt import build_semigroup

    G = build_semigroup([[0, 1], [1, 0]])  # group, no zero
    r = classify(G, lambdas=(2,))
    assert r.primitivity_no_zero_caveat
    assert r.blambda_free[2] is None
    assert not r.monoid_with_zero


def assert_flags_match_definitions(S):
    """The characterizations agree with the definitions they replace, the
    detected identity with a scan of every element, and central idempotents
    exclude a copy of B2 (the proof on PropertyReport), so that
    classifiable_target needs no B2 clause.  B2 has five elements, so that
    check bites only on the corpus bases of order 5 and more."""
    r = classify(S)
    assert r.b2_free or not r.idempotents_central
    assert r.inverse == reference_is_inverse(S)
    assert r.clifford == reference_is_clifford(S)
    assert r.primitive_inverse == reference_is_primitive_inverse(S)
    assert S.identity == reference_identity(S)


def test_flags_match_definitions_on_every_table_of_order_at_most_three():
    tables = small_semigroups()
    assert len(tables) == 122
    for S in tables:
        assert_flags_match_definitions(S)


@given(associative_tables())
@settings(max_examples=200, deadline=None)
def test_flags_match_definitions_on_random_tables(table):
    assert_flags_match_definitions(build_semigroup(table))


def test_flags_match_definitions_on_corpus_extensions():
    bases = [
        *acceptance_corpus().values(),
        chain(4),
        chain(5),
        cyclic_group_with_zero(3),
        cyclic_group_with_zero(8),
        matrix_units(2),
        rect_band_with_unit_and_zero(),
        b2_with_identity(),
    ]
    for S in bases:
        assert_flags_match_definitions(S)
        for lam in (1, 2, 3):
            assert_flags_match_definitions(brandt_extension(S, lam).carrier)
