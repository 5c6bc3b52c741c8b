import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandt import (
    BudgetExceeded,
    NoZero,
    TooLarge,
    congruence_lattice,
    excludes_b2,
    find_matrix_unit_copy,
    is_congruence,
    is_congruence_free,
    iso_search,
    matrix_unit_exclusion,
    principal_congruence,
)
from brandt.construct import brandt_extension, matrix_units
from brandt.corpus import (
    acceptance_corpus,
    chain,
    cyclic_group_with_zero,
    example_e,
    matrix_units_with_identity_and_new_zero,
    two_element,
)
from brandt.homs import _search_maps, check_homomorphism
from brandt.search import identity_partition, universal_partition


def all_partitions(n):
    """Every partition of range(n), as normalized class-id tuples."""
    if n == 0:
        return
    for assignment in itertools.product(range(n), repeat=n):
        ids = {}
        norm = []
        for c in assignment:
            if c not in ids:
                ids[c] = len(ids)
            norm.append(ids[c])
        yield tuple(norm)


def brute_congruences(S):
    return {p for p in set(all_partitions(S.order)) if is_congruence(S, p)}


def test_lattice_matches_partition_filter_on_chain():
    E = example_e()
    assert set(congruence_lattice(E)) == brute_congruences(E)
    assert not is_congruence_free(E)
    # collapsing the bottom two elements is a congruence
    assert is_congruence(E, (0, 1, 1))


def test_lattice_matches_partition_filter_on_matrix_units():
    b2 = matrix_units(2)
    assert set(congruence_lattice(b2)) == brute_congruences(b2)
    assert is_congruence_free(b2)


def test_lattice_matches_partition_filter_on_group_with_zero():
    G = cyclic_group_with_zero(2)
    assert set(congruence_lattice(G)) == brute_congruences(G)
    assert not is_congruence_free(G)


def test_two_element_semigroups_are_congruence_free():
    for S in (two_element(), chain(2)):
        assert is_congruence_free(S)


def test_identity_and_universal_always_present():
    for S in (example_e(), matrix_units(2), cyclic_group_with_zero(3)):
        lat = congruence_lattice(S)
        assert identity_partition(S.order) in lat
        assert universal_partition(S.order) in lat
        for p in lat:
            assert is_congruence(S, p)


def test_matrix_units_rank3_congruence_free():
    assert is_congruence_free(matrix_units(3))


def test_lattice_matches_partition_filter_on_an_extension():
    """Full Bell-number sweep over the order-9 extension of the chain."""
    S = brandt_extension(chain(3), 2).carrier
    n = S.order

    def partitions(collection):
        if len(collection) == 1:
            yield [collection]
            return
        first = collection[0]
        for smaller in partitions(collection[1:]):
            for i, subset in enumerate(smaller):
                yield smaller[:i] + [[first] + subset] + smaller[i + 1 :]
            yield [[first]] + smaller

    def normalize(part):
        out = [0] * n
        for i, cls in enumerate(part):
            for x in cls:
                out[x] = i
        ids = {}
        res = []
        for c in out:
            if c not in ids:
                ids[c] = len(ids)
            res.append(ids[c])
        return tuple(res)

    brute = {
        p
        for p in map(normalize, partitions(list(range(n))))
        if is_congruence(S, p)
    }
    assert set(congruence_lattice(S)) == brute
    assert len(brute) == 4


def test_congruence_bound_refusal():
    big = brandt_extension(chain(4), 4).carrier  # order 49
    with pytest.raises(TooLarge):
        is_congruence_free(big)
    with pytest.raises(TooLarge):
        congruence_lattice(big)


@given(st.tuples(st.integers(0, 8), st.integers(0, 8)))
@settings(max_examples=50, deadline=None)
def test_principal_congruence_is_congruence(pair):
    S = brandt_extension(example_e(), 2).carrier
    a, b = pair
    part = principal_congruence(S, a, b)
    assert is_congruence(S, part)
    assert part[a] == part[b]


def test_b2_embeds_in_itself_anchored():
    b2 = matrix_units(2)
    copy = find_matrix_unit_copy(b2, 2, anchor_zero=True)
    assert copy is not None
    assert copy.zero_image == b2.zero
    images = {
        (i, j): copy.unit_images[i][j] for i in range(2) for j in range(2)
    }
    # verify the product relations directly
    t = b2.table
    for (i, j), x in images.items():
        for (k, l), y in images.items():
            expect = images[(i, l)] if j == k else copy.zero_image
            assert t[x][y] == expect


def test_no_copy_in_commutative_semigroup():
    E = example_e()
    # independent fact: E is commutative while matrix units are not
    assert all(
        E.table[x][y] == E.table[y][x] for x in range(3) for y in range(3)
    )
    assert find_matrix_unit_copy(E, 2) is None
    assert excludes_b2(E)
    assert matrix_unit_exclusion(E, 2)


def test_unanchored_copy_with_displaced_zero():
    T = matrix_units_with_identity_and_new_zero(2)
    copy = find_matrix_unit_copy(T, 2, anchor_zero=False)
    assert copy is not None and copy.zero_image != T.zero
    assert find_matrix_unit_copy(T, 2, anchor_zero=True) is None
    assert not excludes_b2(T)
    assert not matrix_unit_exclusion(T, 2)


def test_exclusion_flags_on_matrix_units():
    b2 = matrix_units(2)
    assert not excludes_b2(b2)
    assert not matrix_unit_exclusion(b2, 2)
    # the plain flag coincides with the rank-2 variant everywhere it is defined
    for S in (example_e(), b2, cyclic_group_with_zero(2)):
        p, l2 = excludes_b2(S), matrix_unit_exclusion(S, 2)
        assert p == l2 or not p


def test_exclusion_needs_zero():
    band_free = build_semigroup_no_zero()
    with pytest.raises(NoZero):
        matrix_unit_exclusion(band_free, 2)


def build_semigroup_no_zero():
    from brandt import build_semigroup

    return build_semigroup([[0, 1], [1, 0]])  # the 2-element group


def test_iso_transpose_witness():
    b2 = matrix_units(2)
    witness = iso_search(b2, b2)
    assert witness is not None
    hom = check_homomorphism(witness, b2, b2)
    assert hom.is_injective and hom.is_surjective
    # deterministic first witness is the identity
    assert witness == tuple(range(5))


def test_iso_rejects_on_invariants():
    assert iso_search(matrix_units(2), chain(5)) is None
    assert iso_search(matrix_units(2), matrix_units(3)) is None


def test_double_extension_iso_found():
    two = brandt_extension(two_element(), 2)
    nested = brandt_extension(two.carrier, 2)
    witness = iso_search(nested.carrier, matrix_units(4))
    assert witness is not None
    hom = check_homomorphism(witness, nested.carrier, matrix_units(4))
    assert hom.is_injective and hom.is_surjective


def test_iso_distinguishes_same_profile_orders():
    # same order, different structure
    assert iso_search(chain(3), cyclic_group_with_zero(2)) is None


def first_isomorphism(A, B):
    """Oracle: the first bijection, in permutations order, respecting products."""
    n = A.order
    if B.order != n:
        return None
    for p in itertools.permutations(range(n)):
        if all(
            B.table[p[i]][p[j]] == p[A.table[i][j]] for i in range(n) for j in range(n)
        ):
            return p
    return None


def test_iso_witness_matches_permutation_oracle(relabeled):
    corpus = list(acceptance_corpus().values()) + [
        cyclic_group_with_zero(3),
        matrix_units(2),
        brandt_extension(two_element(), 2).carrier,
    ]
    rng = random.Random(11)
    pairs = [(relabeled(X, rng), relabeled(X, rng)) for X in corpus for _ in range(5)]
    # distinct members of equal order, isomorphic or not
    pairs += [
        (relabeled(X, rng), relabeled(Y, rng))
        for X in corpus
        for Y in corpus
        if X is not Y and X.order == Y.order
    ]
    for A, B in pairs:
        assert iso_search(A, B) == first_isomorphism(A, B)


def test_injective_search_obeys_budget(relabeled):
    A, B = relabeled(matrix_units(2), random.Random(3)), matrix_units(2)
    domains = [range(5)] * 5
    with pytest.raises(BudgetExceeded):
        next(_search_maps(A, B, range(5), domains, injective=True, budget=3))
    with pytest.raises(BudgetExceeded):
        iso_search(A, B, budget=3)
    assert next(_search_maps(A, B, range(5), domains, injective=True)) == (
        first_isomorphism(A, B)
    )
