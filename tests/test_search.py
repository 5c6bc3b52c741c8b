import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandt import (
    BudgetExceeded,
    NoZero,
    ShapeError,
    build_semigroup,
    congruence_closure,
    congruence_lattice,
    excludes_b2,
    find_matrix_unit_copy,
    is_congruence,
    is_congruence_free,
    iso_search,
    matrix_unit_exclusion,
    search,
)
from brandt.construct import brandt_extension, matrix_units
from brandt.core import _magma_generators
from brandt.corpus import (
    acceptance_corpus,
    b2_with_identity,
    chain,
    cyclic_group_with_zero,
    example_e,
    matrix_units_with_identity_and_new_zero,
    rect_band_with_unit_and_zero,
    two_element,
)
from brandt.homs import _compile, _product_count, _search_maps, check_homomorphism
from brandt.search import (
    DEFAULT_CONGRUENCE_BOUND,
    _element_profiles,
    _principal_congruences,
    identity_partition,
    universal_partition,
)
from reference_kernel import (
    reference_congruence_closure,
    reference_congruence_lattice,
    reference_element_profiles,
    reference_find_matrix_unit_copy,
    reference_is_congruence_free,
    reference_search_maps,
)
from test_homs import associative_tables, mulclose, oracle_carriers


def class_ids(keys):
    """Renumber per-element class keys by first occurrence."""
    ids = {}
    return tuple(ids.setdefault(k, len(ids)) for k in keys)


def all_partitions(n):
    """Every partition of range(n), as normalized class-id tuples."""
    if n == 0:
        return
    for assignment in itertools.product(range(n), repeat=n):
        yield class_ids(assignment)


def brute_congruences(S):
    return {p for p in set(all_partitions(S.order)) if is_congruence(S, p)}


def set_partitions(n):
    """Every partition of range(n) exactly once, by the Bell-number recursion,
    as normalized class-id tuples."""

    def partitions(collection):
        if len(collection) == 1:
            yield [collection]
            return
        first = collection[0]
        for smaller in partitions(collection[1:]):
            for i, subset in enumerate(smaller):
                yield smaller[:i] + [[first] + subset] + smaller[i + 1 :]
            yield [[first]] + smaller

    for part in partitions(list(range(n))):
        cls = {x: i for i, members in enumerate(part) for x in members}
        yield class_ids(cls[x] for x in range(n))


@functools.cache
def bell_congruences(S):
    """Every congruence of S, filtered from all its partitions."""
    return frozenset(p for p in set_partitions(S.order) if is_congruence(S, p))


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
    brute = bell_congruences(S)
    assert set(congruence_lattice(S)) == brute
    assert len(brute) == 4


def test_congruence_bound_refusal():
    big = brandt_extension(chain(4), 4).carrier  # order 49
    message = "order 49 exceeds the congruence bound 40"
    with pytest.raises(BudgetExceeded, match=message):
        is_congruence_free(big)
    with pytest.raises(BudgetExceeded, match=message):
        congruence_lattice(big)


@given(st.tuples(st.integers(0, 8), st.integers(0, 8)))
@settings(max_examples=50, deadline=None)
def test_principal_congruence_is_congruence(pair):
    S = brandt_extension(example_e(), 2).carrier
    a, b = pair
    part = congruence_closure(S, [(a, b)])
    assert is_congruence(S, part)
    assert part[a] == part[b]
    # least: the meet of every congruence that identifies a and b
    containing = [p for p in bell_congruences(S) if p[a] == p[b]]
    assert part == class_ids(tuple(p[x] for p in containing) for x in range(S.order))


def congruence_carriers():
    """The extensions of order <= 40 of two, chain3, z2, rect and C8^0 at
    ranks 1..6, and the acceptance corpus with its extensions at rank <= 3,
    each table once."""
    bases = [
        two_element(),
        chain(3),
        cyclic_group_with_zero(2),
        rect_band_with_unit_and_zero(),
        cyclic_group_with_zero(8),
    ]
    corpus = list(acceptance_corpus().values())
    members = [(S, lam) for S in bases for lam in range(1, 7)]
    members += [(S, lam) for S in corpus for lam in range(1, 4)]
    carriers = {S.table: S for S in corpus}
    for S, lam in members:
        if lam * lam * (S.order - 1) + 1 <= DEFAULT_CONGRUENCE_BOUND:
            C = brandt_extension(S, lam).carrier
            carriers.setdefault(C.table, C)
    return list(carriers.values())


def assert_congruences_match_reference(S):
    assert S.generators == tuple(_magma_generators(S.table))
    assert mulclose(S.table, S.generators) == set(range(S.order))
    # the premise of the closure order: no translation raises the product
    # count, w(x*g) <= w(x) and w(g*x) <= w(x)
    t, r = S.table, range(S.order)
    w = [_product_count(t, x) for x in r]
    assert all(w[t[x][g]] <= w[x] and w[t[g][x]] <= w[x] for x in r for g in r)
    pairs = list(itertools.combinations(range(S.order), 2))
    expected = {pair: reference_congruence_closure(S, [pair]) for pair in pairs}
    assert {(a, b): congruence_closure(S, [(a, b)]) for a, b in pairs} == expected
    # each closure reusing the earlier ones
    assert dict(_principal_congruences(S)) == expected
    # a fresh closure per pair, and joins by closure
    assert congruence_lattice(S) == reference_congruence_lattice(S)
    assert is_congruence_free(S) == reference_is_congruence_free(S)


def zero_last(S):
    """S relabeled by x -> n - 1 - x; an extension's zero goes last."""
    n = S.order
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[n - 1 - x][n - 1 - y] = n - 1 - S.table[x][y]
    return build_semigroup(table)


@pytest.mark.parametrize(
    "base, lam, congruences, lattice_finds, free_finds",
    [(chain(3), 4, 4, 31_903, 259), (two_element(), 6, 2, 3_703, 2_963)],
    ids=["chain3^4", "B6"],
)
def test_principal_closures_meet_known_congruences(
    monkeypatch, base, lam, congruences, lattice_finds, free_finds
):
    # closing the pairs in lexicographic order, these took 51,628 and 147
    # finds on chain3^4 (order 33, 4 congruences), and 12,550 and 11,810 on
    # B6 (order 37, congruence-free); with the zero at index 0 lexicographic
    # order starts from it too, and chain3^4's lattice took 29,719 (29,703)
    S = zero_last(brandt_extension(base, lam).carrier)
    assert S.zero == S.order - 1
    finds = 0

    def counting_find(parent, x):
        nonlocal finds
        finds += 1
        return find(parent, x)

    find = search._find
    monkeypatch.setattr(search, "_find", counting_find)
    assert len(congruence_lattice(S)) == congruences
    assert finds == lattice_finds
    finds = 0
    assert is_congruence_free(S) == (congruences == 2)
    assert finds == free_finds


@pytest.mark.parametrize(
    "pair, message",
    [
        ((-1, 0), "pair element -1 out of range 0..2"),
        ((0, 3), "pair element 3 out of range 0..2"),
        ((0, 1.0), "pair element 1.0 is not an int"),
        ((0, True), "pair element True is not an int"),
    ],
    ids=["negative", "too-large", "float", "bool"],
)
def test_congruence_pairs_are_checked_before_closing(pair, message):
    with pytest.raises(ShapeError) as exc:
        congruence_closure(chain(3), [(0, 1), pair])
    assert str(exc.value) == message


def test_congruence_closure_rejects_pairs_of_other_lengths():
    for pair in [(0,), (0, 1, 2)]:
        with pytest.raises(ShapeError, match="does not have two elements"):
            congruence_closure(chain(3), [pair])


def test_lattice_joins_beyond_the_principal_congruences():
    # every equivalence of a left-zero band is a congruence, and those with
    # more than one merged pair are joins; no fixed carrier has such a one
    S = build_semigroup([[x] * 4 for x in range(4)])
    assert len(congruence_lattice(S)) == 15
    assert_congruences_match_reference(S)


def test_generator_closure_matches_reference_closure():
    carriers = congruence_carriers()
    assert sorted(C.order for C in carriers) == [
        2, 2, 3, 3, 3, 3, 5, 6, 9, 9, 9, 10, 17, 19, 19, 21, 26, 33, 33, 33, 37
    ]
    for S in carriers:
        assert_congruences_match_reference(S)


def test_generator_closure_matches_reference_closure_on_relabelings(relabeled):
    # other labels give other generators and another merge order
    rng = random.Random(17)
    for S in congruence_carriers():
        assert_congruences_match_reference(relabeled(S, rng))


@given(associative_tables())
@settings(max_examples=200, deadline=None)
def test_generator_closure_matches_reference_closure_on_random_tables(table):
    assert_congruences_match_reference(build_semigroup(table))


def test_b2_embeds_in_itself_anchored():
    b2 = matrix_units(2)
    copy = find_matrix_unit_copy(b2, 2, anchor_zero=True)
    assert copy is not None
    assert copy.mapping[0] == b2.zero
    images = {
        (i, j): copy.mapping[1 + 2 * i + j] for i in range(2) for j in range(2)
    }
    # verify the product relations directly
    t = b2.table
    for (i, j), x in images.items():
        for (k, l), y in images.items():
            expect = images[(i, l)] if j == k else copy.mapping[0]
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
    assert copy is not None and copy.mapping[0] != T.zero
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


def test_exclusion_below_rank_two_raises_on_a_target_with_an_anchored_copy():
    # the anchored rank-2 search, which runs first, finds a copy in both
    # targets; a rank below 2 must still be refused, not answered
    for T in (matrix_units(2), brandt_extension(two_element(), 3).carrier):
        assert find_matrix_unit_copy(T, 2, anchor_zero=True) is not None
        for lam in (0, 1):
            with pytest.raises(ShapeError):
                matrix_unit_exclusion(T, lam)


def build_semigroup_no_zero():
    return build_semigroup([[0, 1], [1, 0]])  # the 2-element group


def matrix_unit_targets():
    """Bases that do and do not hold matrix units, with their extensions
    at rank <= 3."""
    bases = [
        *acceptance_corpus().values(),
        chain(4),
        cyclic_group_with_zero(3),
        cyclic_group_with_zero(8),
        rect_band_with_unit_and_zero(),
        b2_with_identity(),
        matrix_units_with_identity_and_new_zero(2),
        matrix_units_with_identity_and_new_zero(3),
        matrix_units(2),
        matrix_units(3),
    ]
    return bases + [brandt_extension(S, lam).carrier for S in bases for lam in (1, 2, 3)]


def test_copy_search_matches_reference_and_definition(relabeled):
    rng = random.Random(23)
    targets = matrix_unit_targets()
    targets += [relabeled(T, rng) for T in targets]
    found = missing = 0
    for T in targets:
        for lam, anchor_zero in itertools.product((2, 3, 4), (False, True)):
            copy = find_matrix_unit_copy(T, lam, anchor_zero)
            ref = reference_find_matrix_unit_copy(T, lam, anchor_zero)
            if ref is None:
                assert copy is None
                missing += 1
            else:
                units = itertools.chain.from_iterable(ref.unit_images)
                assert copy.mapping == (ref.zero_image, *units)
                assert copy.source == matrix_units(lam) and copy.target == T
                found += 1
            if T.order <= 10:
                # a copy is, by definition, an injective map respecting products
                domains = [range(T.order)] * (lam * lam + 1)
                if anchor_zero:
                    domains[0] = (T.zero,)
                units = matrix_units(lam)
                levels = _compile(units, range(lam * lam + 1))
                maps = _search_maps(units, T, levels, domains, injective=True)
                assert (next(maps, None) is not None) == (copy is not None)
    assert found and missing


def test_exclusion_matches_reference_copy_searches():
    for T in matrix_unit_targets():
        if T.zero is None:
            continue
        anchored = reference_find_matrix_unit_copy(T, 2, anchor_zero=True)
        for lam in (2, 3, 4):
            unanchored = reference_find_matrix_unit_copy(T, lam, anchor_zero=False)
            assert matrix_unit_exclusion(T, lam) == (anchored is None and unanchored is None)


def test_no_rank6_copy_in_the_rank5_extension_of_rect():
    # the 25 non-zero idempotents (a, e, a) are orthogonal only across
    # distinct a, so no 6 of them are; the search must see that without
    # trying the C(25, 6) diagonal combinations at the zero alone
    T = brandt_extension(rect_band_with_unit_and_zero(), 5).carrier
    assert find_matrix_unit_copy(T, 6) is None


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


def test_iso_witness_matches_reference_kernel_on_oracle_carriers(relabeled):
    # orders up to 28, where forward checking narrows most candidate lists;
    # over full domains the reference's first map is the smallest witness
    rng = random.Random(17)
    carriers = oracle_carriers()
    pairs = [(relabeled(C, rng), relabeled(C, rng)) for C in carriers for _ in range(3)]
    pairs += [
        (relabeled(X, rng), relabeled(Y, rng))
        for X in carriers
        for Y in carriers
        if X is not Y and X.order == Y.order
    ]
    for A, B in pairs:
        n = A.order
        domains = [range(n)] * n
        first = next(reference_search_maps(A, B, range(n), domains, injective=True), None)
        assert iso_search(A, B) == first


def test_element_profiles_match_reference_on_oracle_carriers(relabeled):
    rng = random.Random(37)
    for C in oracle_carriers():
        for S in (C, relabeled(C, rng), relabeled(C, rng)):
            assert _element_profiles(S) == reference_element_profiles(S)


@given(associative_tables())
@settings(max_examples=200, deadline=None)
def test_element_profiles_match_reference_on_random_tables(table):
    S = build_semigroup(table)
    assert _element_profiles(S) == reference_element_profiles(S)


def test_iso_search_step_count(relabeled):
    rng = random.Random(3)
    B3 = brandt_extension(chain(4), 3).carrier
    A, B = relabeled(B3, rng), relabeled(B3, rng)
    # the whole search takes exactly 252 steps (order 28)
    with pytest.raises(BudgetExceeded):
        iso_search(A, B, budget=251)
    assert iso_search(A, B, budget=252) is not None


def test_injective_search_obeys_budget(relabeled):
    A, B = relabeled(matrix_units(2), random.Random(3)), matrix_units(2)
    domains = [range(5)] * 5
    with pytest.raises(BudgetExceeded):
        next(_search_maps(A, B, _compile(A, range(5)), domains, injective=True, budget=3))
    with pytest.raises(BudgetExceeded):
        iso_search(A, B, budget=3)
    assert next(_search_maps(A, B, _compile(A, range(5)), domains, injective=True)) == (
        first_isomorphism(A, B)
    )
