"""Derived structures memoized per semigroup, against fresh ones.

``subsemigroup``, ``maximal_subgroup``, ``matrix_unit_exclusion``, the
extension built inside ``image_decomposition``, the program
``enumerate_homs`` compiles and the rank-free flags of ``classify`` are
computed once per memo: one per FiniteSemigroup, shared by the extension
carriers that one base builds at one lam with the default labels.  Every
memo hit must return the first call's object and equal what an equal,
memo-free instance computes; a call that raises must raise every time and
leave nothing in the memo.  The memo and every other cached value live in
the instance dict through ``core.cached_property``, which takes no lock and
keeps one value per instance when threads race.
"""

import gc
import importlib
import itertools
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings

from brandt import (
    AlgebraError,
    NotIdempotent,
    NoZero,
    ShapeError,
    build_semigroup,
    check_block_separation,
    check_homomorphism,
    classify,
    enumerate_homs,
    enumerate_triples,
    image_decomposition,
    matrix_unit_exclusion,
    maximal_subgroup,
    recover_triple,
    subsemigroup,
)
from brandt import construct, core, homs
from brandt.category import MorphismTriple
from brandt.homs import Homomorphism
from brandt.construct import brandt_extension, matrix_units_extension
from brandt.corpus import (
    acceptance_corpus,
    chain,
    cyclic_group_with_zero,
    rect_band_with_unit_and_zero,
)
from reference_kernel import reference_search_maps
from test_homs import associative_tables, mulclose

# the package exports the function under the module's name
classify_module = importlib.import_module("brandt.classify")


def fresh(S):
    """An equal semigroup whose memo is empty."""
    return build_semigroup(S.table, S.labels)


def assert_memo_hit_matches_fresh(call, S, *args):
    first = call(S, *args)
    assert call(S, *args) is first
    assert call(fresh(S), *args) == first


def assert_raises_unmemoized(exc, call, S, *args):
    keys = set(S._memo)
    for _ in range(2):
        with pytest.raises(exc):
            call(S, *args)
    assert set(S._memo) == keys


def check_memoized_structures(S):
    """Every subsemigroup generated by at most two elements, every maximal
    subgroup, the exclusion flags at rank 2 and 3, and their failures."""
    for pair in itertools.combinations_with_replacement(range(S.order), 2):
        closed = mulclose(S.table, pair)
        assert_memo_hit_matches_fresh(subsemigroup, S, closed)
        if closed != set(pair):
            assert_raises_unmemoized(AlgebraError, subsemigroup, S, pair)
    for e in range(S.order):
        if S.table[e][e] == e:
            assert_memo_hit_matches_fresh(maximal_subgroup, S, e)
        else:
            assert_raises_unmemoized(NotIdempotent, maximal_subgroup, S, e)
    if S.zero is None:
        assert_raises_unmemoized(NoZero, matrix_unit_exclusion, S, 2)
        return
    for lam in (2, 3):
        assert_memo_hit_matches_fresh(matrix_unit_exclusion, S, lam)
    assert_raises_unmemoized(ShapeError, matrix_unit_exclusion, S, 1)


def test_memo_hits_match_fresh_computation_on_the_corpus():
    for S in acceptance_corpus().values():
        check_memoized_structures(S)
        for lam in (2, 3):
            check_memoized_structures(brandt_extension(S, lam).carrier)


@given(associative_tables())
@settings(max_examples=100, deadline=None)
def test_memo_hits_match_fresh_computation_on_random_tables(table):
    S = build_semigroup(table)
    check_memoized_structures(S)
    if S.zero is not None:
        check_memoized_structures(brandt_extension(S, 2).carrier)


def test_equal_extension_carriers_share_one_memo():
    # two carriers of one base at one lam are distinct, equal objects with
    # the one memo the base keeps for them: what the first fills, the
    # second reads, and it still matches a memo-free copy
    for S in acceptance_corpus().values():
        S = fresh(S)
        for lam in (1, 2, 3):
            first = brandt_extension(S, lam).carrier
            second = brandt_extension(S, lam).carrier
            assert first is not second and first == second
            assert first._memo is second._memo is S._memo[("extension_memo", lam)]
            check_memoized_structures(first)
            filled = dict(first._memo)
            check_memoized_structures(second)
            assert second._memo.keys() == filled.keys()
            assert all(second._memo[key] is value for key, value in filled.items())
            for e in first.idempotents:
                assert maximal_subgroup(second, e) is maximal_subgroup(first, e)
                assert subsemigroup(second, sorted({0, e})) is subsemigroup(first, sorted({0, e}))
        assert brandt_extension(S, 2).carrier._memo is not brandt_extension(S, 3).carrier._memo
    # caller-given labels: a memo of its own, not filled in advance
    units = [matrix_units_extension(2).carrier for _ in range(2)]
    assert all("_memo" not in vars(U) for U in units)
    assert units[0]._memo is not units[1]._memo


def test_the_shared_memo_outlives_its_carriers_and_keeps_none_alive():
    # every entry is a function of the carrier's value and none refers
    # back to it, so a dropped carrier is freed while the base keeps its
    # derived structures (T0, the image, the extension of T0) for the next
    src = brandt_extension(chain(3), 2)
    T = fresh(cyclic_group_with_zero(2))
    dst = brandt_extension(T, 2)
    sigmas = enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)
    decompositions = [image_decomposition(sigma, src) for sigma in sigmas]
    check_memoized_structures(dst.carrier)
    memo = dst.carrier._memo
    groups = {e: maximal_subgroup(dst.carrier, e) for e in dst.carrier.idempotents}
    subs = {e: subsemigroup(dst.carrier, sorted({0, e})) for e in groups}
    ref = weakref.ref(dst.carrier)
    del dst, sigmas
    gc.collect()
    assert ref() is None
    assert T._memo[("extension_memo", 2)] is memo
    again = brandt_extension(T, 2)
    for e, group in groups.items():
        assert maximal_subgroup(again.carrier, e) is group
        assert subsemigroup(again.carrier, sorted({0, e})) is subs[e]
    for sigma, (T0, witness) in zip(
        enumerate_homs(src.carrier, again.carrier, nontrivial_only=True), decompositions
    ):
        T0_again, witness_again = image_decomposition(sigma, src)
        assert T0_again is T0 and witness_again.source is witness.source


def test_calculus_caches_keep_no_map_extension_or_carrier_alive():
    # recover_triple keeps its verdicts on the source extension and
    # image_decomposition its set-up in the carriers' shared memos; once
    # the maps, the extensions and the carriers are dropped, all are freed,
    # and equal extensions built again meet the same T0
    S, T = fresh(chain(3)), fresh(cyclic_group_with_zero(2))
    src, dst = brandt_extension(S, 2), brandt_extension(T, 2)
    sigmas = enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)
    verdicts = [recover_triple(sigma, src, dst) for sigma in sigmas]
    decompositions = [image_decomposition(sigma, src) for sigma in sigmas]
    assert verdicts and all(isinstance(v, MorphismTriple) for v in verdicts)
    refs = [weakref.ref(x) for x in (src, dst, src.carrier, dst.carrier, *sigmas)]
    del src, dst, sigmas
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    src, dst = brandt_extension(S, 2), brandt_extension(T, 2)
    sigmas = enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)
    assert [recover_triple(sigma, src, dst) for sigma in sigmas] == verdicts
    for sigma, (T0, witness) in zip(sigmas, decompositions):
        T0_again, witness_again = image_decomposition(sigma, src)
        assert T0_again is T0 and witness_again == witness


def test_image_decomposition_memo_hits_match_fresh_computation():
    corpus = list(acceptance_corpus().values())
    checked = 0
    for S, T in itertools.product(corpus, repeat=2):
        for l1, l2 in ((1, 1), (1, 2), (2, 2)):
            src = brandt_extension(S, l1)
            dst = brandt_extension(T, l2)
            for sigma in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True):
                T0, witness = image_decomposition(sigma, src)
                again = image_decomposition(sigma, src)
                assert again[0] is T0 and again[1].source is witness.source
                assert again == (T0, witness)
                unmemoized = check_homomorphism(sigma.mapping, src.carrier, fresh(dst.carrier))
                assert image_decomposition(unmemoized, src) == (T0, witness)
                checked += 1
    assert checked > 50


def test_image_decomposition_builds_each_structure_once(monkeypatch):
    # one corpus pair over its whole rank grid, on fresh bases so that no
    # memo arrives filled.  The target carriers of one lam2 share one memo,
    # so the sweep builds each T0 and each image once per lam2, and each
    # extension of T0 once per T0 and lam1 (at rank one the image is T0
    # itself).  Every table, validated by build_semigroup or trusted by
    # construction, is wrapped by core._trusted_semigroup, so that is the
    # call counted.
    S, T = fresh(chain(3)), fresh(cyclic_group_with_zero(2))
    grid = []
    for l1, l2 in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
        src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
        grid.append((l2, src, enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)))

    built = []
    real = core._trusted_semigroup

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "_trusted_semigroup", counting)
    monkeypatch.setattr(construct, "_trusted_semigroup", counting)
    subsemigroups, extensions = set(), set()
    calls = 0
    for l2, src, sigmas in grid:
        for sigma in sigmas:
            diagonal = [sigma.mapping[src.encode(0, s, 0)] for s in src.nonzero_base]
            t0 = frozenset([sigma.mapping[0], *diagonal])
            subsemigroups |= {(l2, t0), (l2, frozenset(sigma.mapping))}
            extensions.add((l2, t0, src.lam))
            for _ in range(2):
                image_decomposition(sigma, src)
                calls += 1
    expected = len(subsemigroups) + len(extensions)
    # unmemoized, each call would build three tables: 3 * 184 = 552
    assert len(built) == expected
    assert (expected, calls) == (32, 184)


def test_enumerate_homs_compiles_once_per_source_value(monkeypatch):
    # the searches of a triple-sweep grid on fresh bases: the source
    # carrier at each lam1 and, inside enumerate_triples, the base itself.
    # Equal carriers share the memo their base keeps, and the base has one
    # once it is extended, so 12 searches compile 4 programs; compiled per
    # call, they would compile 12
    compiled = []
    real = homs._compile

    def counting(A, branch_order):
        compiled.append(A)
        return real(A, branch_order)

    monkeypatch.setattr(homs, "_compile", counting)
    S, T = fresh(chain(3)), fresh(cyclic_group_with_zero(2))
    calls = 0
    for l1, l2 in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
        src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
        enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)
        enumerate_triples(S, T, l1, l2)
        calls += 2
    assert (len(compiled), calls) == (4, 12)
    assert compiled == [brandt_extension(S, 1).carrier, S] + [
        brandt_extension(S, lam).carrier for lam in (2, 3)
    ]


def test_enumerate_homs_gives_a_plain_table_no_memo(monkeypatch):
    # a table nothing has been derived from compiles per call and keeps
    # nothing, so one-off searches pay no memory for a program never reused
    compiled = []
    real = homs._compile
    monkeypatch.setattr(homs, "_compile", lambda A, order: compiled.append(A) or real(A, order))
    S, T = fresh(chain(3)), fresh(brandt_extension(cyclic_group_with_zero(2), 2).carrier)
    for _ in range(2):
        assert enumerate_homs(S, T) == enumerate_homs(S, T)
        enumerate_homs(T, S)
    assert compiled == [S, S, T] * 2
    assert "_memo" not in vars(S) and "_memo" not in vars(T)


def test_warm_programs_give_the_maps_of_a_fresh_compile_and_the_reference():
    targets = [fresh(chain(3)), brandt_extension(fresh(cyclic_group_with_zero(2)), 2).carrier]
    checked = 0
    for S in acceptance_corpus().values():
        S = fresh(S)
        sources = [brandt_extension(S, lam).carrier for lam in (1, 2)]
        for A, T in itertools.product([S, *sources], targets):
            cold = enumerate_homs(A, T)
            assert ("hom_program",) in A._memo
            warm = enumerate_homs(A, T)
            fresh_compile = enumerate_homs(fresh(A), T)
            domains = [range(T.order)] * A.order
            reference = sorted(reference_search_maps(A, T, homs.generating_set(A), domains))
            assert warm == cold == fresh_compile
            assert [h.mapping for h in warm] == reference
            checked += 1
    # an equal carrier built later reads the program and finds the same maps
    again = brandt_extension(S, 2).carrier
    assert again._memo[("hom_program",)] is sources[1]._memo[("hom_program",)]
    assert enumerate_homs(again, targets[1]) == enumerate_homs(fresh(again), targets[1])
    assert checked == 24


def test_classify_computes_the_rank_free_flags_once_per_table(monkeypatch):
    runs = []
    real = classify_module.is_congruence_free

    def counting(S):
        runs.append(S)
        return real(S)

    monkeypatch.setattr(classify_module, "is_congruence_free", counting)
    ranks = ((), (2,), (3,), (1, 2, 3), (2,))
    for base in (chain(3), cyclic_group_with_zero(2), rect_band_with_unit_and_zero()):
        base = fresh(base)
        first, second = (brandt_extension(base, 2).carrier for _ in range(2))
        for T in (base, first):
            runs.clear()
            reports = [classify(T, lambdas=lams) for lams in ranks]
            assert runs == [T]
            expected = [classify(fresh(T), lambdas=lams) for lams in ranks]
            assert reports == expected
            # each equal, memo-free table computes its own flags
            assert len(runs) == 1 + len(ranks)
            # a new report and a dict of its own each call: an edit to one
            # reaches no other report
            assert len({id(r.blambda_free) for r in reports}) == len(ranks)
            reports[0].blambda_free[2] = reports[1].blambda_free[2] = "edited"
            assert classify(T) == expected[0] and classify(T, lambdas=(2,)) == expected[1]
        # the second carrier reads the flags the first one's calls computed,
        # in reports and dicts of its own, and neither carrier stays alive
        runs.clear()
        again = [classify(second, lambdas=lams) for lams in ranks]
        assert again == expected and runs == []
        assert not any(a.blambda_free is r.blambda_free for a in again for r in reports)
        refs = [weakref.ref(C) for C in (first, second)]
        del first, second, T, reports, again
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


def memo_kinds(*bases):
    """The first element of every key in every memo reachable from the
    bases: their own, the extension memos they keep, and the memos of the
    semigroups and extensions stored in those."""
    kinds, seen = set(), set()

    def walk(value):
        if isinstance(value, core.FiniteSemigroup):
            walk_memo(vars(value).get("_memo", {}))
        elif isinstance(value, construct.BrandtExtension):
            walk(value.base)
            walk(value.carrier)
        elif isinstance(value, tuple):
            for item in value:
                walk(item)

    def walk_memo(memo):
        if id(memo) in seen:
            return
        seen.add(id(memo))
        for key, value in memo.items():
            kinds.add(key[0])
            if key[0] == "extension_memo":
                walk_memo(value)
            else:
                walk(value)

    for S in bases:
        walk(S)
    return kinds


def test_the_calculus_keeps_eight_kinds_of_memo_entry():
    # a new kind of cache changes this set on purpose; the extension of T0
    # is kept once, in the diagonal entry of the target carrier's memo, and
    # each source carrier keeps the program its searches run
    S, T = fresh(chain(3)), fresh(cyclic_group_with_zero(2))
    for l1, l2 in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
        src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
        for sigma in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True):
            recover_triple(sigma, src, dst)
            image_decomposition(sigma, src)
            if l1 >= 2:
                check_block_separation(sigma, src, dst)
    assert memo_kinds(S, T) == {
        "subsemigroup",
        "maximal_subgroup",
        "extension_memo",
        "matrix_unit_exclusion",
        "diagonal_monoid",
        "image_positions",
        "witness_reads",
        "hom_program",
    }


def test_threads_racing_on_one_memo_keep_one_entry_per_key():
    # a race may compute an entry twice; every thread still gets a value
    # equal to the fresh one, and the memo ends with one entry per key.
    # Each thread reads through a carrier of its own, all equal and all
    # sharing the memo the base keeps for them
    base, T = fresh(cyclic_group_with_zero(2)), fresh(chain(3))
    carriers = [brandt_extension(base, 3).carrier for _ in range(8)]
    S = carriers[0]
    arguments = [(e,) for e in S.idempotents] + [(sorted({0, x}),) for x in S.idempotents]
    calls = [maximal_subgroup] * len(S.idempotents) + [subsemigroup] * len(S.idempotents)
    arguments += [(T,), ((2, 3),)]
    calls += [enumerate_homs, classify]
    results = [None] * 8

    def work(i):
        results[i] = [call(carriers[i], *args) for call, args in zip(calls, arguments)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    U = fresh(S)
    assert results == [[call(U, *args) for call, args in zip(calls, arguments)]] * 8
    # one program, one set of flags and the exclusion at ranks 2 and 3
    assert len(S._memo) == len(arguments) + 2
    assert all(C._memo is S._memo for C in carriers)


def test_cached_property_computes_once_per_instance():
    runs = []

    class Box:
        @core.cached_property
        def value(self):
            """The doc."""
            runs.append(self)
            return object()

    a, b = Box(), Box()
    assert a.value is a.value and b.value is b.value
    assert a.value is not b.value
    assert runs == [a, b]
    assert isinstance(Box.value, core.cached_property)
    assert Box.value.__doc__ == "The doc."


def test_cached_property_serves_the_frozen_dataclasses():
    # the descriptor writes to __dict__, which a frozen dataclass allows
    ext = brandt_extension(chain(3), 2)
    sigma = check_homomorphism(range(ext.carrier.order), ext.carrier, ext.carrier)
    for obj, name in ((ext.carrier, "idempotents"), (ext, "block_starts"), (sigma, "image")):
        assert name not in vars(obj)
        value = getattr(obj, name)
        assert vars(obj)[name] is value is getattr(obj, name)
    assert sigma.image == frozenset(range(ext.carrier.order))


def test_cached_property_returns_a_prefilled_value_uncomputed(monkeypatch):
    # build_semigroup fills generators, brandt_extension fills coords
    S = fresh(chain(3))
    ext = brandt_extension(S, 2)
    generators, coords = vars(S)["generators"], vars(ext)["coords"]

    def fail(*args):
        raise AssertionError("computed a prefilled property")

    monkeypatch.setattr(core, "_magma_generators", fail)
    monkeypatch.setattr(construct, "_carrier_coords", fail)
    assert S.generators is generators and ext.coords is coords


def test_threads_reading_one_fresh_memo_get_one_dict():
    # the eight threads first race on a property whose function waits for
    # all of them, so each computes its own value and one is kept, then on
    # the memo of a fresh semigroup
    class Racy:
        @core.cached_property
        def value(self):
            computing.wait(timeout=60)
            return object()

    box, S = Racy(), fresh(chain(3))
    assert "_memo" not in vars(S)
    computing, barrier = threading.Barrier(8), threading.Barrier(8)
    results = [None] * 8

    def work(i):
        value = box.value
        barrier.wait(timeout=60)
        results[i] = (value, S._memo)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [(vars(box)["value"], vars(S)["_memo"])] * 8
    assert all(value is box.value and memo is S._memo for value, memo in results)


def test_threads_alternating_targets_on_one_source_get_their_own_verdicts():
    # eight threads share one source extension and its verdicts, half of
    # them recovering into B_1(chain(3)) and half into B_1(C2^0) with the
    # same map table and so the same base map; an entry decided for the
    # other target is never served, however the writes interleave
    S, T = fresh(chain(3)), fresh(cyclic_group_with_zero(2))
    src = brandt_extension(S, 1)
    targets = [brandt_extension(S, 1), brandt_extension(T, 1)]
    identity = tuple(range(src.carrier.order))
    sigmas = [check_homomorphism(identity, src.carrier, targets[0].carrier)]
    sigmas.append(Homomorphism(src.carrier, targets[1].carrier, identity))
    expected = [
        recover_triple(sigma, brandt_extension(S, 1), dst) for sigma, dst in zip(sigmas, targets)
    ]
    assert isinstance(expected[0], MorphismTriple) and not isinstance(expected[1], MorphismTriple)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def work(i):
        barrier.wait(timeout=60)
        results[i] = [recover_triple(sigmas[i % 2], src, targets[i % 2]) for _ in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[expected[i % 2]] * 200 for i in range(8)]
