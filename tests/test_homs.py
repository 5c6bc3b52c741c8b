import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandt import (
    BudgetExceeded,
    FiniteSemigroup,
    Mismatch,
    NotHomomorphism,
    ShapeError,
    build_semigroup,
    check_homomorphism,
    compose_homs,
    enumerate_homs,
)
from brandt.construct import (
    bicyclic_with_zero,
    brandt_extension,
    function_brandt_extension,
    matrix_units,
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
from brandt.fixtures import ex2_5_data, EX2_12_ENTRIES
from brandt.construct import matrix_units_extension
from brandt.core import _grow_closure, _magma_generators
from brandt import homs
from brandt.homs import _branch_order, _compile, _search_maps, generating_set
from conftest import associative_tables, small_semigroups
from reference_kernel import (
    reference_check_homomorphism,
    reference_compile,
    reference_generating_set,
    reference_grow_closure,
    reference_magma_generators,
    reference_search_maps,
)


def brute_force_homs(S, T):
    """Oracle: test every map from S to T against the product law."""
    out = set()
    n = S.order
    for mapping in itertools.product(range(T.order), repeat=n):
        if all(
            T.table[mapping[i]][mapping[j]] == mapping[S.table[i][j]]
            for i in range(n)
            for j in range(n)
        ):
            out.add(mapping)
    return out


def mulclose(table, gens):
    """Oracle: the closure of ``gens`` under the product, grown from scratch."""
    els = set(gens)
    frontier = list(els)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(els):
                for c in (table[a][b], table[b][a]):
                    if c not in els:
                        els.add(c)
                        fresh.append(c)
        frontier = fresh
    return els


def greedy_generating_set(S):
    """Oracle: the greedy generators, closing each candidate set from scratch."""
    n = S.order
    gens, closed = [], set()
    while len(closed) < n:
        best, best_closure = None, None
        for e in range(n):
            if e in closed:
                continue
            clo = mulclose(S.table, gens + [e])
            if best_closure is None or len(clo) > len(best_closure):
                best, best_closure = e, clo
        gens.append(best)
        closed = best_closure
    return gens


def test_generating_set_matches_greedy_oracle(relabeled):
    bases = list(acceptance_corpus().values()) + [
        chain(4),
        cyclic_group_with_zero(3),
        cyclic_group_with_zero(8),
        rect_band_with_unit_and_zero(),
        b2_with_identity(),
    ]
    rng = random.Random(4)
    for base in bases:
        for lam in (1, 2, 3):
            C = brandt_extension(base, lam).carrier
            for S in (C, relabeled(C, rng)):
                assert generating_set(S) == greedy_generating_set(S)


def test_embedded_17_entry_map_is_a_homomorphism():
    src, dst, mapping = ex2_5_data()
    hom = check_homomorphism(mapping, src.carrier, dst.carrier)
    assert not hom.is_trivial and hom.preserves_zero


def test_constant_to_zero_is_trivial():
    b2 = matrix_units(2)
    hom = check_homomorphism([0] * 5, b2, b2)
    assert hom.is_trivial and hom.preserves_zero


def test_map_into_function_backed_codomain():
    src = matrix_units_extension(2)
    dst = function_brandt_extension(bicyclic_with_zero(), 2)
    mapping = ["0"] * 5
    for (i, j), token in EX2_12_ENTRIES.items():
        mapping[src.encode(i - 1, 0, j - 1)] = token
    hom = check_homomorphism(mapping, src.carrier, dst)
    assert not hom.is_trivial
    assert hom.preserves_zero
    assert not hom.is_surjective


def test_not_homomorphism_reports_pair():
    b2 = matrix_units(2)
    mapping = list(range(5))
    mapping[1] = 2
    with pytest.raises(NotHomomorphism) as exc:
        check_homomorphism(mapping, b2, b2)
    i, j = exc.value.witness
    assert 0 <= i < 5 and 0 <= j < 5


def test_enumerate_matches_brute_force_oracle(relabeled):
    cases = [
        (matrix_units(2), matrix_units(2)),
        (example_e(), example_e()),
        (two_element(), cyclic_group_with_zero(2)),
        (cyclic_group_with_zero(2), example_e()),
    ]
    # relabeled copies: the greedy generators no longer come in label order
    rng = random.Random(7)
    cases += [
        (relabeled(S, rng), relabeled(T, rng)) for S, T in cases for _ in range(2)
    ]
    for S, T in cases:
        expected = brute_force_homs(S, T)
        got = {h.mapping for h in enumerate_homs(S, T)}
        assert got == expected


def oracle_homs(S, T):
    """Oracle: the sorted maps of the kernel that closed against every element."""
    domains = [range(T.order)] * S.order
    return sorted(reference_search_maps(S, T, generating_set(S), domains))


def edge_kernel_homs(S, T):
    return [h.mapping for h in enumerate_homs(S, T)]


# The extensions of order <= 28 the hom-search benchmark pairs up, and the
# acceptance corpus at rank 1 and 2.
ORACLE_EXTENSIONS = [
    (two_element(), 3),
    (chain(3), 2),
    (chain(3), 3),
    (chain(4), 2),
    (chain(4), 3),
    (cyclic_group_with_zero(2), 2),
    (cyclic_group_with_zero(2), 3),
    (cyclic_group_with_zero(3), 2),
    (cyclic_group_with_zero(3), 3),
    (rect_band_with_unit_and_zero(), 2),
    (b2_with_identity(), 2),
] + [(base, lam) for base in acceptance_corpus().values() for lam in (1, 2)]


def oracle_carriers():
    """The distinct carriers of ORACLE_EXTENSIONS (chain3 and the abc
    semilattice share a table, and two entries recur in both lists)."""
    carriers = {}
    for base, lam in ORACLE_EXTENSIONS:
        C = brandt_extension(base, lam).carrier
        carriers.setdefault(C.table, C)
    return list(carriers.values())


def rank_grid_carriers():
    """oracle_carriers() and the carriers it leaves out of seven bases over
    ranks 1 to 3: chain(4), C3^0, rect and B2 with an identity at rank 1,
    and rect and B2 with an identity at rank 3 (order 46)."""
    bases = [two_element(), chain(3), chain(4), cyclic_group_with_zero(2)]
    bases += [cyclic_group_with_zero(3), rect_band_with_unit_and_zero(), b2_with_identity()]
    carriers = {C.table: C for C in oracle_carriers()}
    for base in bases:
        for lam in (1, 2, 3):
            C = brandt_extension(base, lam).carrier
            carriers.setdefault(C.table, C)
    return list(carriers.values())


def test_cayley_edge_kernel_matches_reference_kernel():
    carriers = oracle_carriers()
    assert len(carriers) == 15
    for S in carriers:
        for T in carriers:
            assert edge_kernel_homs(S, T) == oracle_homs(S, T)


def test_cayley_edge_kernel_matches_reference_kernel_on_relabelings(relabeled):
    # other labels give other generators and another branch order
    rng = random.Random(13)
    carriers = [relabeled(C, rng) for C in oracle_carriers()]
    for S in carriers:
        for T in carriers:
            assert edge_kernel_homs(S, T) == oracle_homs(S, T)


def test_compiled_levels_take_each_cayley_edge_once():
    # every filter and op is a true product p = a·g, a right Cayley edge
    # taken at most once in the whole program, at the level where both its
    # ends are first decided; a filter has x as exactly one operand and its
    # other two elements decided before the level; every edge whose left
    # end is a branch generator is a rule or a define, so it is taken; the
    # program runs straight through and every element is defined exactly once
    rng = random.Random(29)
    for S in oracle_carriers():
        t = S.table
        shuffled = list(range(S.order))
        rng.shuffle(shuffled)
        for order in (generating_set(S), range(S.order), shuffled):
            levels = _compile(S, order)
            gens = [x for x, _, _ in levels]
            level_of = {}
            seen = []
            for k, (x, filters, prog) in enumerate(levels):
                assert x not in level_of
                before = set(level_of)
                for a, g, p in filters:
                    assert (a == x) != (g == x) and {a, g, p} - {x} <= before
                    assert p == t[a][g]
                    seen.append((a, g, k))
                level_of[x] = k
                for i, (a, g, p, defines, ran) in enumerate(prog, 1):
                    assert ran == i and p == t[a][g]
                    assert a in level_of and g in level_of
                    assert (p not in level_of) == defines
                    level_of.setdefault(p, k)
                    seen.append((a, g, k))
            assert sorted(level_of) == list(range(S.order))
            assert len(seen) == len(set(seen))
            assert all(g in gens and k == max(level_of[a], level_of[g]) for a, g, k in seen)
            assert {(a, g) for a in gens for g in gens} <= {(a, g) for a, g, _ in seen}


def test_compiled_checks_run_once_their_operands_are_decided():
    # each level generates what the reference program of the level (every
    # new right Cayley edge) generates, from a subset of its filters and ops;
    # each check op comes right after the define of the last of its three
    # elements, with only checks in between, or at the front of its level
    # when all three are decided as the level starts
    rng = random.Random(37)
    for S in oracle_carriers():
        shuffled = list(range(S.order))
        rng.shuffle(shuffled)
        for order in (_branch_order(S), range(S.order), shuffled):
            levels, every_edge = _compile(S, order), reference_compile(S, order)
            assert [x for x, _, _ in levels] == [x for x, _, _ in every_edge]
            for (x, filters, prog), (_, edge_filters, edge_prog) in zip(levels, every_edge):
                assert set(filters) <= set(edge_filters)
                assert {op[:3] for op in prog} <= {op[:3] for op in edge_prog}
                rank = {}  # element -> number of the define op that decides it
                for a, g, p, defines, _ in prog:
                    if defines:
                        rank[p] = len(rank) + 1
                    else:
                        assert max(rank.get(a, 0), rank.get(g, 0), rank.get(p, 0)) == len(rank)
                assert set(rank) == {p for _, _, p, defines, _ in edge_prog if defines}


def test_compiled_kernel_matches_reference_kernel_on_every_small_table():
    # every ordered pair of the tables of order <= 3, branched in index order
    # and in the search's order, as hom and as injective search: the same
    # maps in the same order; a source order that branches on the same
    # generators as index order compiles to the same programs, so it runs once
    tables = small_semigroups()
    assert len(tables) == 122
    for S in tables:
        orders = {}
        for order in (range(S.order), _branch_order(S)):
            orders.setdefault(tuple(x for x, _, _ in _compile(S, order)), order)
        for order in orders.values():
            for T in tables:
                domains = [range(T.order)] * S.order
                for injective in (False, True):
                    levels = _compile(S, order)
                    got = list(_search_maps(S, T, levels, domains, injective=injective))
                    want = reference_search_maps(S, T, order, domains, injective=injective)
                    assert got == list(want)


@given(associative_tables(), associative_tables())
@settings(max_examples=150, deadline=None)
def test_cayley_edge_kernel_matches_oracles_on_random_tables(s_table, t_table):
    S, T = build_semigroup(s_table), build_semigroup(t_table)
    got = edge_kernel_homs(S, T)
    assert got == oracle_homs(S, T)
    assert set(got) == brute_force_homs(S, T)


def checks_agree(mapping, S, T) -> bool:
    """The edge check and the all-pairs oracle accept or reject the map
    together, and a rejecting edge (i, j) breaks the product law.  Returns
    whether the map is a homomorphism."""
    try:
        want = reference_check_homomorphism(mapping, S, T)
    except NotHomomorphism:
        want = None
    try:
        got = check_homomorphism(mapping, S, T)
    except NotHomomorphism as exc:
        i, j = exc.witness
        fi, fj = mapping[i], mapping[j]
        product = T.table[fi][fj] if isinstance(T, FiniteSemigroup) else T.multiply(fi, fj)
        assert product != mapping[S.table[i][j]]
        got = None
    assert got == want
    return want is not None


def checks_agree_around(S, T, rng):
    """Every map enumerate_homs finds, each with one entry planted wrong,
    and some random maps.  Returns how many maps were checked and how many
    of them were rejected."""
    images = range(T.order)
    maps = [h.mapping for h in enumerate_homs(S, T)]
    for mapping in maps:
        assert checks_agree(mapping, S, T)
    for mapping in maps[:]:
        planted = list(mapping)
        i = rng.randrange(S.order)
        planted[i] = rng.choice([v for v in images if v != planted[i]] or images)
        maps.append(planted)
    maps += [[rng.choice(images) for _ in range(S.order)] for _ in range(10)]
    accepted = sum(checks_agree(mapping, S, T) for mapping in maps)
    return len(maps), len(maps) - accepted


def test_edge_check_matches_all_pairs_oracle_on_corpus_extensions():
    rng = random.Random(5)
    carriers = oracle_carriers()
    one = build_semigroup([[0]])  # the 1x1 table, as source and as target
    pairs = [(S, T) for S in carriers for T in carriers]
    pairs += [(one, C) for C in carriers] + [(C, one) for C in carriers]
    checked = rejected = 0
    for S, T in pairs:
        n, bad = checks_agree_around(S, T, rng)
        checked += n
        rejected += bad
    assert checks_agree([0], one, one)
    assert rejected > 1000 and checked - rejected > 1000


@given(associative_tables(), associative_tables(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_edge_check_matches_all_pairs_oracle_on_random_tables(s_table, t_table, rng):
    S, T = build_semigroup(s_table), build_semigroup(t_table)
    checks_agree_around(S, T, rng)


def test_edge_check_matches_all_pairs_oracle_into_function_backed_target():
    # the bicyclic monoid with zero, and its rank-2 extension (Example 2.12)
    rng = random.Random(8)
    bicyclic = bicyclic_with_zero()
    tokens = ["0"] + [(i, j) for i in range(3) for j in range(3)]
    for S in (two_element(), example_e(), cyclic_group_with_zero(2)):
        accepted = sum(
            checks_agree(mapping, S, bicyclic)
            for mapping in itertools.product(tokens, repeat=S.order)
        )
        assert accepted > 0
    src = matrix_units_extension(2)
    dst = function_brandt_extension(bicyclic, 2)
    mapping = ["0"] * 5
    for (i, j), token in EX2_12_ENTRIES.items():
        mapping[src.encode(i - 1, 0, j - 1)] = token
    assert checks_agree(mapping, src.carrier, dst)
    ext_tokens = ["0"] + [(a, t, b) for a in range(2) for t in tokens[1:4] for b in range(2)]
    for i in range(5):
        for token in ext_tokens:
            planted = list(mapping)
            planted[i] = token
            checks_agree(planted, src.carrier, dst)
    for _ in range(50):
        checks_agree([rng.choice(ext_tokens) for _ in range(5)], src.carrier, dst)


def assert_closures_match_reference(S, order):
    """Grow the closure of longer and longer prefixes of ``order``: from
    each one, adding any element outside it along right Cayley edges gives
    the set that the both-sided oracle closure gives.  Then the generators
    of Light's test and the greedy generators equal their oracles."""
    t = S.table
    closed, gens = [], []
    for x in order:
        if x in closed:
            continue
        for e in range(S.order):
            if e not in closed:
                got = _grow_closure(t, list(closed), gens, e)
                assert set(got) == set(reference_grow_closure(t, list(closed), e))
        _grow_closure(t, closed, gens, x)
        gens.append(x)
    assert sorted(closed) == list(range(S.order))
    assert _magma_generators(t) == reference_magma_generators(t)
    assert generating_set(S) == reference_generating_set(S)


def test_generating_set_matches_reference_on_oracle_carriers(relabeled):
    # skipping covered candidates and stopping at a full closure keep the
    # greedy choice; relabelings change the ties and the skipped elements
    rng = random.Random(31)
    carriers = rank_grid_carriers()
    assert len(carriers) == 21
    for C in carriers:
        for S in (C, relabeled(C, rng), relabeled(C, rng)):
            order = list(range(S.order))
            rng.shuffle(order)
            assert_closures_match_reference(S, order)


@given(associative_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_generating_set_matches_reference_on_random_tables(table, data):
    S = build_semigroup(table)
    assert_closures_match_reference(S, data.draw(st.permutations(range(S.order))))


def test_generating_set_grows_no_closure_in_its_first_round(monkeypatch):
    # with nothing chosen yet each candidate's closure is its powers, which
    # are walked directly; later rounds grow closures of the chosen set
    R3 = brandt_extension(rect_band_with_unit_and_zero(), 3).carrier
    chosen = []
    grow = homs._grow_closure

    def counted(table, members, gens, x):
        chosen.append(len(gens))
        return grow(table, members, gens, x)

    monkeypatch.setattr(homs, "_grow_closure", counted)
    assert generating_set(R3) == reference_generating_set(R3) == [6, 20, 9, 15, 40]
    assert chosen == [1] * 39 + [2] * 25 + [3] * 14 + [4] * 6


def generating_prefix(S, order):
    """The shortest prefix of ``order``, which must generate S, that does."""
    closed, gens = [], []
    for i, x in enumerate(order):
        if x not in closed:
            _grow_closure(S.table, closed, gens, x)
            gens.append(x)
        if len(closed) == S.order:
            return order[: i + 1]


@given(associative_tables(), associative_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_forward_checking_keeps_sub_domain_order(s_table, t_table, data):
    # enumerate_homs passes full ranges; ascending sub-domains reach the
    # filtered, order-preserving candidate lists that iso_search relies on.
    # The compiled levels depend on the branch order, so shuffled ones that
    # still generate S are tried too.
    S, T = build_semigroup(s_table), build_semigroup(t_table)
    subsets = st.lists(st.sampled_from(range(T.order)), unique=True).map(sorted)
    domains = [data.draw(subsets) for _ in range(S.order)]
    shuffled = data.draw(st.permutations(range(S.order)))
    orders = (
        generating_set(S),
        range(S.order),
        shuffled,
        generating_prefix(S, shuffled),
        data.draw(st.permutations(generating_set(S))),
    )
    for injective in (False, True):
        for order in orders:
            got = list(_search_maps(S, T, _compile(S, order), domains, injective=injective))
            want = list(reference_search_maps(S, T, order, domains, injective=injective))
            assert got == want


def greedy_order_homs(S, T):
    """Oracle: the sorted maps of the kernel branching in the greedy order
    of ``generating_set(S)``."""
    domains = [range(T.order)] * S.order
    return sorted(_search_maps(S, T, _compile(S, generating_set(S)), domains))


def assert_branch_order_permutes_the_generators(S):
    """The branch order is generating_set(S), sorted by descending
    |x·S| + |S·x|, ties in the greedy order."""
    gens = generating_set(S)
    order = _branch_order(S)
    assert sorted(order) == sorted(gens)
    weight = [len(set(S.table[x])) + len({row[x] for row in S.table}) for x in order]
    assert weight == sorted(weight, reverse=True)
    for w in set(weight):
        tied = [x for x, v in zip(order, weight) if v == w]
        assert tied == [x for x in gens if x in tied]


def test_branch_order_keeps_every_map_on_relabeled_extension_pairs(relabeled):
    rng = random.Random(19)
    carriers = [relabeled(C, rng) for C in oracle_carriers()]
    for S in carriers:
        assert_branch_order_permutes_the_generators(S)
        for T in carriers:
            assert edge_kernel_homs(S, T) == greedy_order_homs(S, T)
    R3 = relabeled(brandt_extension(rect_band_with_unit_and_zero(), 3).carrier, rng)
    assert_branch_order_permutes_the_generators(R3)
    got = edge_kernel_homs(R3, R3)
    assert len(got) == 892 and got == greedy_order_homs(R3, R3)


@given(associative_tables(), associative_tables())
@settings(max_examples=150, deadline=None)
def test_branch_order_keeps_every_map_on_random_tables(s_table, t_table):
    S, T = build_semigroup(s_table), build_semigroup(t_table)
    assert_branch_order_permutes_the_generators(S)
    assert edge_kernel_homs(S, T) == greedy_order_homs(S, T)


def test_branch_order_puts_the_units_first_on_relabeled_extensions():
    # the greedy order starts with whichever element a label favours; the
    # units (a, 1_S, b) have the most distinct products and come first
    ext = brandt_extension(rect_band_with_unit_and_zero(), 3)
    C = ext.carrier
    n = C.order
    units = {ext.encode(a, ext.base.identity, b) for a in range(3) for b in range(3)}
    rng = random.Random(23)
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[perm[i]][perm[j]] = perm[C.table[i][j]]
        S = build_semigroup(table)
        back = {perm[i]: i for i in range(n)}
        is_unit = [back[x] in units for x in _branch_order(S)]
        assert is_unit == [True] * 3 + [False] * (len(is_unit) - 3)


def test_matrix_unit_endomorphisms():
    b2 = matrix_units(2)
    homs = enumerate_homs(b2, b2, nontrivial_only=True)
    assert len(homs) == 2
    maps = [h.mapping for h in homs]
    assert tuple(range(5)) in maps  # identity
    # the other one permutes both unit coordinates by the index swap
    swapped = tuple(
        0 if i == 0 else b2.index_of(relabel(b2.labels[i])) for i in range(5)
    )
    assert swapped in maps
    # coordinate transposition alone is an antiautomorphism, not a witness
    transpose = (0, 1, 3, 2, 4)
    assert transpose not in maps


def relabel(label):
    i, j = label.strip("()").split(",")
    flip = {"1": "2", "2": "1"}
    return f"({flip[i]},{flip[j]})"


def test_trivial_semigroup_has_one_endomorphism():
    one = build_semigroup([[0]])
    homs = enumerate_homs(one, one)
    assert len(homs) == 1 and homs[0].is_trivial


def test_collapsing_endomorphism_is_found():
    E = example_e()
    ext = brandt_extension(E, 2)
    homs = enumerate_homs(ext.carrier, ext.carrier, nontrivial_only=True)
    expected = [0] * 9
    for a in range(2):
        for b in range(2):
            expected[ext.encode(a, 0, b)] = ext.encode(a, 1, b)
    assert tuple(expected) in {h.mapping for h in homs}


def test_output_is_sorted_and_unique():
    E = example_e()
    homs = enumerate_homs(E, E)
    maps = [h.mapping for h in homs]
    assert maps == sorted(maps)
    assert len(set(maps)) == len(maps)


def test_budget_exceeded():
    E = example_e()
    ext = brandt_extension(E, 2)
    with pytest.raises(BudgetExceeded):
        enumerate_homs(ext.carrier, ext.carrier, budget=3)
    # the whole search takes exactly 340 steps (500 in the greedy order)
    with pytest.raises(BudgetExceeded):
        enumerate_homs(ext.carrier, ext.carrier, budget=339)
    assert len(enumerate_homs(ext.carrier, ext.carrier, budget=340)) == 15


def test_chain4_rank3_endomorphisms_step_count():
    B3 = brandt_extension(chain(4), 3).carrier
    # the whole search takes exactly 21574 steps (order 28; 49432 in the
    # greedy order)
    with pytest.raises(BudgetExceeded):
        enumerate_homs(B3, B3, budget=21573)
    assert len(enumerate_homs(B3, B3, budget=21574)) == 124


def test_compose_homs():
    E = example_e()
    f = check_homomorphism((1, 2, 2), E, E)
    g = compose_homs(f, f)
    assert g.mapping == (2, 2, 2)
    assert g.is_trivial


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (
            lambda: check_homomorphism((0, 0), chain(3), chain(3)),
            ShapeError,
            "map covers 2 elements, source has 3",
        ),
        (
            lambda: check_homomorphism((0, 1, 3), chain(3), chain(3)),
            ShapeError,
            "image 3 outside the target",
        ),
        (
            lambda: compose_homs(
                check_homomorphism((0, 1, 2), chain(3), chain(3)),
                check_homomorphism((0, 0), two_element(), two_element()),
            ),
            Mismatch,
            "middle semigroups differ",
        ),
    ],
    ids=["map-length", "image-range", "compose"],
)
def test_map_shapes_rejected_by_message(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
