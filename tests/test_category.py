import dataclasses
import hashlib
import itertools
import math
import random
import re
from pathlib import Path

import pytest

from brandt import (
    AlgebraError,
    ConformanceError,
    HypothesisUnmet,
    IllFormedTriple,
    Mismatch,
    NoIdentity,
    ShapeError,
    TrivialInput,
    check_block_separation,
    check_homomorphism,
    compose_and_check,
    compose_homs,
    compose_triples,
    enumerate_homs,
    enumerate_triples,
    extension_homs,
    identity_triple,
    image_decomposition,
    induced_hom,
    make_triple,
    maximal_subgroup,
    recover_triple,
)
from brandt import category, core
from brandt.category import NotClassifiable
from brandt.classify import classify
from brandt.construct import (
    BrandtExtension,
    brandt_extension,
    matrix_units_extension,
    orthogonal_sum,
)
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
from brandt.fixtures import (
    _homs_between_extensions,
    completeness_rows,
    ex2_13_data,
    ex2_14_triple,
    ex2_5_data,
    ex2_6_data,
)
from brandt.homs import Homomorphism
from reference_kernel import (
    reference_check_homomorphism,
    reference_image_witness,
    reference_induced_hom,
    reference_recover_triple,
    reference_subsemigroup,
)
from test_construct import assert_matches_validated
from test_memo import fresh

RANKS = tuple(itertools.combinations_with_replacement((1, 2, 3), 2))


def test_identity_triple_induces_identity():
    for S in (two_element(), example_e(), cyclic_group_with_zero(2)):
        ext = brandt_extension(S, 2)
        sig = induced_hom(identity_triple(S, 2), ext, ext)
        assert sig.mapping == tuple(range(ext.carrier.order))


def test_collapsing_triple_matches_formula():
    E = example_e()
    ext = brandt_extension(E, 2)
    sig = induced_hom(ex2_14_triple(), ext, ext)
    for a in range(2):
        for b in range(2):
            assert sig.mapping[ext.encode(a, 0, b)] == ext.encode(a, 1, b)
            assert sig.mapping[ext.encode(a, 1, b)] == 0
    assert sig.mapping[0] == 0


def test_triple_validation():
    E = example_e()
    base = check_homomorphism((1, 2, 2), E, E)
    with pytest.raises(IllFormedTriple):
        make_triple(base, (0, 0), (0, 1), 2)  # weights outside H(b)
    with pytest.raises(IllFormedTriple):
        make_triple(base, (1, 1), (0, 0), 2)  # index map not injective
    with pytest.raises(IllFormedTriple):
        make_triple(base, (1, 1), (0, 2), 2)  # index out of range
    bad_base = check_homomorphism((0, 0, 0), E, E)  # sends zero to a
    with pytest.raises(IllFormedTriple):
        make_triple(bad_base, (0, 0), (0, 1), 2)
    # the constant-zero base is an ordinary triple: H(c) = {c}
    zero_base = check_homomorphism((2, 2, 2), E, E)
    t = make_triple(zero_base, (2, 2), (0, 1), 2)
    assert t.is_trivial and t.idempotent == E.zero
    with pytest.raises(IllFormedTriple, match="outside the maximal subgroup"):
        make_triple(zero_base, (2, 1), (0, 1), 2)
    # two weights over one index, and one weight over two
    for weights, index_map in (((1, 1), (0,)), ((1,), (0, 1))):
        with pytest.raises(IllFormedTriple, match="cover the same index set"):
            make_triple(base, weights, index_map, 2)


def test_induced_hom_rejects_the_right_bases_at_the_wrong_lambda():
    """Each extension must match the triple in its base and in its lambda;
    the right base alone is not enough on either side."""
    E = example_e()
    t = ex2_14_triple()  # lam 2 into lam 2
    ext, wide = brandt_extension(E, 2), brandt_extension(E, 3)
    assert induced_hom(t, ext, ext).source is ext.carrier
    with pytest.raises(Mismatch, match="source extension does not match"):
        induced_hom(t, wide, ext)
    with pytest.raises(Mismatch, match="target extension does not match"):
        induced_hom(t, ext, wide)


def test_constant_zero_triples_induce_the_zero_map():
    """Listing the constant-zero base adds one triple per injection and
    leaves the others in order; each of the added ones induces the zero map."""
    corpus = acceptance_corpus()
    for S in corpus.values():
        for T in corpus.values():
            for l1, l2 in itertools.combinations_with_replacement((1, 2, 3), 2):
                src = brandt_extension(S, l1)
                dst = brandt_extension(T, l2)
                default = enumerate_triples(S, T, l1, l2)
                every = enumerate_triples(S, T, l1, l2, nontrivial_only=False)
                zero = [t for t in every if t.is_trivial]
                assert [t for t in every if not t.is_trivial] == default
                assert len(zero) == len(every) - len(default) == math.perm(l2, l1)
                for t in zero:
                    assert t.weights == (T.zero,) * l1
                    assert induced_hom(t, src, dst).mapping == (0,) * src.carrier.order


def test_group_weights_conjugate():
    G = cyclic_group_with_zero(2)
    ext = brandt_extension(G, 2)
    base = check_homomorphism(tuple(range(G.order)), G, G)
    t = make_triple(base, (G.identity, 1), (0, 1), 2)  # weight g at index 1
    sig = induced_hom(t, ext, ext)
    # (0, s, 1) maps to (0, s*g^-1, 1) = (0, s*g, 1)
    assert sig.mapping[ext.encode(0, 1, 1)] == ext.encode(0, 0, 1)
    assert sig.mapping[ext.encode(0, 0, 1)] == ext.encode(0, 1, 1)
    verdict = recover_triple(sig, ext, ext)
    assert not isinstance(verdict, NotClassifiable)
    assert induced_hom(verdict, ext, ext).mapping == sig.mapping


def test_roundtrip_on_corpus():
    corpus = acceptance_corpus()
    for s_name, S in corpus.items():
        for t_name, T in corpus.items():
            for l1, l2 in ((1, 1), (1, 2), (2, 2)):
                src = brandt_extension(S, l1)
                dst = brandt_extension(T, l2)
                for t in enumerate_triples(S, T, l1, l2):
                    sig = induced_hom(t, src, dst)
                    verdict = recover_triple(sig, src, dst)
                    assert not isinstance(verdict, NotClassifiable), (
                        s_name,
                        t_name,
                        l1,
                        l2,
                        verdict.reason,
                    )
                    # u(0) is read off the anchor unit: the triple is canonical
                    assert verdict.weights[0] == verdict.idempotent
                    rebuilt = induced_hom(verdict, src, dst)
                    assert rebuilt.mapping == sig.mapping


def test_completeness_where_the_hypotheses_hold():
    """Non-trivial homs coincide with triple images at rank two targets."""
    corpus = acceptance_corpus()
    for S in corpus.values():
        for T in corpus.values():
            assert classify(T).classifiable_target
            src = brandt_extension(S, 2)
            dst = brandt_extension(T, 2)
            brute = {
                h.mapping
                for h in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)
            }
            generated = {
                induced_hom(t, src, dst).mapping
                for t in enumerate_triples(S, T, 2, 2)
            }
            assert brute == generated


def test_rank_one_sources_split_along_zero_preservation():
    """At rank one the parametrization captures exactly the zero-preserving
    non-trivial homs; the maps that move the zero fall outside it and are
    exactly the zero-moving class built from base homomorphisms."""
    corpus = acceptance_corpus()
    outside = 0
    for S in corpus.values():
        for T in corpus.values():
            for l2 in (1, 2):
                src = brandt_extension(S, 1)
                dst = brandt_extension(T, l2)
                brute = enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)
                generated = {
                    induced_hom(t, src, dst).mapping
                    for t in enumerate_triples(S, T, 1, l2)
                }
                preserving = {h.mapping for h in brute if h.mapping[0] == 0}
                assert generated == preserving
                assert generated <= {h.mapping for h in brute}
                outside += sum(1 for h in brute if h.mapping[0] != 0)

                induced, moving = extension_homs(src, dst)
                assert {h.mapping for h in induced} == preserving
                assert {h.mapping for h in brute if h.mapping[0] != 0} == {
                    h.mapping for h in moving
                }
                # Count the non-constant base homs with h(0) != 0 over every
                # map S -> T, independently of the homomorphism search.
                bases = sum(
                    1
                    for f in itertools.product(range(T.order), repeat=S.order)
                    if len(set(f)) > 1
                    and f[S.zero] != T.zero
                    and all(
                        f[S.table[x][y]] == T.table[f[x]][f[y]]
                        for x in range(S.order)
                        for y in range(S.order)
                    )
                )
                assert len(moving) == l2 * bases
                assert [h.mapping for h in moving] == sorted(h.mapping for h in moving)
                for sigma in moving:
                    check_homomorphism(sigma.mapping, src.carrier, dst.carrier)
    assert outside > 0  # the gap is real, not vacuous


def test_zero_moving_needs_rank_one_source():
    S = example_e()
    ext2 = brandt_extension(S, 2)
    induced, moving = extension_homs(ext2, ext2)
    assert induced and moving == []
    assert extension_homs(brandt_extension(S, 1), ext2)[1] != []


def realized_idempotents(induced, source_ext, target_ext):
    """The middle coordinate of each map's image of the unit (0, 1, 0)."""
    return {
        target_ext.decode(sigma.mapping[source_ext.encode(0, source_ext.base.identity, 0)])[1]
        for sigma in induced
    }


def test_extension_homs_two_element():
    S = two_element()
    ext = brandt_extension(S, 1)
    induced, _ = extension_homs(ext, ext)
    # the identity; the constant-to-zero map is trivial and not returned
    assert len(induced) == 1
    assert induced[0].mapping == tuple(range(ext.carrier.order))
    assert realized_idempotents(induced, ext, ext) == {S.identity}
    assert set(maximal_subgroup(S, S.identity).members) == {S.identity}


def test_extension_homs_realize_middle_idempotent():
    E = example_e()
    a, b = E.index_of("a"), E.index_of("b")
    ext = brandt_extension(E, 1)
    induced, _ = extension_homs(ext, ext)
    assert b in realized_idempotents(induced, ext, ext)
    # the base map a->b, b->c, c->c sends (0, a, 0) to (0, b, 0), all else to 0
    expected = [0] * ext.carrier.order
    expected[ext.encode(0, a, 0)] = ext.encode(0, b, 0)
    sigma = next(h for h in induced if h.mapping == tuple(expected))
    assert recover_triple(sigma, ext, ext).base.mapping == (1, 2, 2)


def test_extension_homs_group_target():
    S = example_e()
    G = cyclic_group_with_zero(2)
    src = brandt_extension(S, 1)
    dst = brandt_extension(G, 1)
    induced, _ = extension_homs(src, dst)
    assert induced
    assert realized_idempotents(induced, src, dst) == {G.identity}


def test_extension_homs_against_triples_brute_force_and_closed_form():
    """Over the corpus at lam1 <= lam2 <= 3, the induced maps are distinct
    and are exactly the maps of all triples, the zero-moving ones are exactly
    the brute-force maps that move the zero, and the brute-force count is

        lam2!/(lam2-lam1)! * sum_h |H(h(1))|^(lam1-1)
          + [lam1 = 1] * lam2 * #{non-constant h : h(0) != 0},

    h running over the non-constant zero-preserving base homomorphisms."""
    corpus = acceptance_corpus()
    points = 0
    for S in corpus.values():
        for T in corpus.values():
            bases = enumerate_homs(S, T, nontrivial_only=True)
            preserving = [h for h in bases if h.mapping[S.zero] == T.zero]
            moving_bases = len(bases) - len(preserving)
            for l1, l2 in itertools.combinations_with_replacement((1, 2, 3), 2):
                src = brandt_extension(S, l1)
                dst = brandt_extension(T, l2)
                induced, moving = extension_homs(src, dst)
                brute = {
                    h.mapping
                    for h in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)
                }
                tables = [h.mapping for h in induced]
                assert len(set(tables)) == len(tables)
                assert tables == sorted(tables)
                assert set(tables) == {
                    induced_hom(t, src, dst).mapping
                    for t in enumerate_triples(S, T, l1, l2)
                }
                assert {h.mapping for h in moving} == {m for m in brute if m[0] != 0}
                assert set(tables) | {h.mapping for h in moving} == brute
                count = math.perm(l2, l1) * sum(
                    len(maximal_subgroup(T, h.mapping[S.identity]).members) ** (l1 - 1)
                    for h in preserving
                )
                if l1 == 1:
                    count += l2 * moving_bases
                assert len(brute) == count
                points += 1
    assert points == 96


def _grid_bases(relabel):
    """The acceptance corpus, then a relabeling of it that moves every base
    zero off the last index, where the corpus keeps it."""
    corpus = acceptance_corpus()
    rng = random.Random(18)
    moved = {f"{name}~": relabel(S, rng) for name, S in corpus.items()}
    assert all(S.zero == S.order - 1 for S in corpus.values())
    assert all(S.zero != S.order - 1 for S in moved.values())
    return corpus, moved


def test_induced_hom_matches_the_per_index_reference(relabeled):
    """induced_hom strides whole blocks; on every triple of the corpus grid
    lam1 <= lam2 <= 3, the constant-zero ones included, and on the relabeled
    grid, it induces the map the per-index reference gives."""
    triples = 0
    for bases in _grid_bases(relabeled):
        for S, T in itertools.product(bases.values(), repeat=2):
            for l1, l2 in RANKS:
                src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
                for t in enumerate_triples(S, T, l1, l2, nontrivial_only=False):
                    assert induced_hom(t, src, dst).mapping == reference_induced_hom(t, src, dst)
                    triples += 1
    assert triples == 3288


def _outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except AlgebraError as exc:
        return f"{type(exc).__name__}: {exc}"


def calculus_grid_lines(relabel) -> list[str]:
    """One line per point of the grid of _grid_bases at lam1 <= lam2 <= 3:
    the bases, the ranks, the number of zero-fixing non-trivial
    homomorphisms and a digest of what recover_triple,
    check_block_separation and image_decomposition return or raise on each.
    tests/data/calculus_grid.txt holds these lines as the per-index calculus
    computed them; calculus_grid_lines(conftest._relabeled) regenerates them.
    """
    lines = []
    for bases in _grid_bases(relabel):
        for (s_name, S), (t_name, T) in itertools.product(bases.items(), repeat=2):
            for l1, l2 in RANKS:
                src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
                digest = hashlib.sha256()
                count = 0
                for h in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True):
                    if h.mapping[0] != 0:
                        continue
                    count += 1
                    image = _outcome(image_decomposition, h, src)
                    if isinstance(image, tuple):
                        T0, w = image
                        image = (T0.table, T0.labels, w.mapping, w.target.table, w.target.labels)
                    outcomes = (
                        h.mapping,
                        _outcome(recover_triple, h, src, dst),
                        _outcome(check_block_separation, h, src, dst),
                        image,
                    )
                    digest.update(repr(outcomes).encode())
                lines.append(f"{s_name} {t_name} {l1} {l2} {count} {digest.hexdigest()[:16]}")
    return lines


def test_calculus_matches_the_per_index_outcomes(relabeled):
    """recover_triple, check_block_separation and image_decomposition
    return, or raise, what the per-index calculus did on every zero-fixing
    map of the grid, relabeled bases included."""
    golden = Path(__file__).parent / "data" / "calculus_grid.txt"
    assert calculus_grid_lines(relabeled) == golden.read_text(encoding="utf-8").splitlines()


def test_completeness_rows_search_each_base_pair_once(monkeypatch):
    """One completeness_rows() pass runs one base-hom search per grid point;
    the brute-force searches on the extensions are not counted."""
    calls = []
    search = category.enumerate_homs

    def counting(S, T, *args, **kwargs):
        calls.append((S, T))
        return search(S, T, *args, **kwargs)

    monkeypatch.setattr(category, "enumerate_homs", counting)
    rows = completeness_rows()
    assert len(rows) == 48
    assert len(calls) == 48


def test_completeness_rows_build_one_triple_per_induced_map(monkeypatch):
    """extension_homs builds only the canonical triples, u(0) = h(1_S), so
    one completeness_rows() pass builds one triple per induced map.  It
    validates none through make_triple, and builds each map without
    induced_hom, whose extension checks took 219 calls."""
    built, validated, checked = [], [], []
    triples, make, induce = category._triples, category.make_triple, category.induced_hom

    def counting_triples(*args, **kwargs):
        for t in triples(*args, **kwargs):
            built.append(t)
            yield t

    def counting(calls, function):
        def count(*args, **kwargs):
            calls.append(1)
            return function(*args, **kwargs)

        return count

    monkeypatch.setattr(category, "_triples", counting_triples)
    monkeypatch.setattr(category, "make_triple", counting(validated, make))
    monkeypatch.setattr(category, "induced_hom", counting(checked, induce))
    rows = completeness_rows()
    induced = sum(len(from_triples) for *_, from_triples, _ in rows)
    assert (len(built), induced, len(validated), len(checked)) == (219, 219, 0, 0)


def oracle_grid_bases():
    """The corpus, C3^0 and three targets that are not classifiable: rect,
    B2 with an identity, and the rank-2 matrix units with an identity and
    a new zero."""
    return [
        *acceptance_corpus().values(),
        cyclic_group_with_zero(3),
        rect_band_with_unit_and_zero(),
        b2_with_identity(),
        matrix_units_with_identity_and_new_zero(2),
    ]


def test_triples_the_calculus_builds_pass_make_triple():
    """The triples enumerate_triples and recover_triple build without
    make_triple equal, field by field and in type, what make_triple makes
    of their data, over the grid of the recover_triple oracle below: the
    constant-zero triples of enumerate_triples included, and every
    non-trivial map recover_triple reads a triple from."""
    bases = oracle_grid_bases()

    def validated(t):
        return make_triple(t.base, t.weights, t.index_map, t.index_codomain)

    listed = recovered = 0
    for S, T in itertools.product(bases, repeat=2):
        for l1, l2 in RANKS[:-1]:
            for t in enumerate_triples(S, T, l1, l2, nontrivial_only=False):
                assert t == validated(t), t
                listed += 1
            src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
            for sigma in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True):
                t = recover_triple(sigma, src, dst)
                if isinstance(t, category.MorphismTriple):
                    assert t == validated(t), t
                    recovered += 1
    assert (listed, recovered) == (6564, 4542)


def test_calculus_calls_no_per_index_encode_or_decode(monkeypatch):
    """The calculus strides whole coordinate blocks and reads the tabulated
    coords and positions.  One completeness_rows() pass, recover_triple,
    image_decomposition and check_block_separation on every zero-fixing map
    of its grid, and compose_and_check on the 2,464 composable pairs of the
    prop2-16 fixture call BrandtExtension.encode and decode not at all.
    Decoding and encoding one carrier index at a time took 2,002 and 7,174
    calls, and compose_and_check 3,472 encode calls on those pairs."""
    calls = []
    for name in ("encode", "decode"):
        method = getattr(BrandtExtension, name)

        def counting(self, *args, _method=method):
            calls.append(1)
            return _method(self, *args)

        monkeypatch.setattr(BrandtExtension, name, counting)
    rows = completeness_rows()
    assert len(calls) == 0
    maps = 0
    for s_name, t_name, l1, l2, *_ in rows:
        src, dst, homs = _homs_between_extensions(s_name, t_name, l1, l2)
        for h in homs:
            if h.mapping[0] == 0:
                recover_triple(h, src, dst)
                image_decomposition(h, src)
                if l1 >= 2:
                    check_block_separation(h, src, dst)
                maps += 1
    pairs = 0
    for s_name, t_name, r_name in itertools.product(acceptance_corpus(), repeat=3):
        src, _, homs1 = _homs_between_extensions(s_name, t_name, 2, 2)
        _, _, homs2 = _homs_between_extensions(t_name, r_name, 2, 2)
        for h1, h2 in itertools.product(homs1, homs2):
            compose_and_check(h1, h2, src)
            pairs += 1
    assert (len(calls), maps, pairs) == (0, 219, 2464)


def test_maps_built_by_construction_pass_the_all_pairs_check():
    """Over the corpus and C3^0 at lam1 <= lam2 <= 3, every map that
    extension_homs returns, and the map induced_hom builds from every
    triple, the constant ones included, is a homomorphism by the all-pairs
    product law; none of them is verified when it is built.  In C3^0 a
    weight is not its own inverse, as it is in every corpus group."""
    bases = [*acceptance_corpus().values(), cyclic_group_with_zero(3)]
    maps = 0
    for S in bases:
        for T in bases:
            for l1, l2 in itertools.combinations_with_replacement((1, 2, 3), 2):
                src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
                induced, moving = extension_homs(src, dst)
                built = induced + moving + [
                    induced_hom(t, src, dst)
                    for t in enumerate_triples(S, T, l1, l2, nontrivial_only=False)
                ]
                for sigma in built:
                    assert reference_check_homomorphism(sigma.mapping, src.carrier, dst.carrier)
                maps += len(built)
    assert maps == 1904 + 84 + 4284  # induced, zero-moving, from all triples


def test_calculus_verifies_each_map_once(monkeypatch):
    """One completeness_rows() pass calls check_homomorphism 0 times, and
    recover_triple, image_decomposition and check_block_separation on
    every zero-fixing map of its grid call it 123 times for the 219 maps,
    once per source extension, target base and recovered base map.  The
    induced and zero-moving maps are homomorphisms by construction;
    verifying each took 255 calls in the pass (474 in all).  recover_triple
    compares its rebuild with the verified map it is handed instead of
    verifying the rebuild too, which took 219 more calls, one per recovered
    map; image_decomposition's witness is a homomorphism by construction
    and was verified once per zero-fixing map, 219 more.  Checking the
    product law of the recovered base map on every map took 219 calls.
    Each grid point gets extensions of its own, since the verdicts live on
    the source extension and earlier calls on the cached ones fill them."""
    calls = []
    check = category.check_homomorphism

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(category, "check_homomorphism", counting)
    rows = completeness_rows()
    assert len(calls) == 0
    corpus = acceptance_corpus()
    maps = 0
    recovered = set()
    for s_name, t_name, l1, l2, *_ in rows:
        *_, homs = _homs_between_extensions(s_name, t_name, l1, l2)
        src, dst = brandt_extension(corpus[s_name], l1), brandt_extension(corpus[t_name], l2)
        for h in homs:
            if h.mapping[0] == 0:
                sigma = Homomorphism(src.carrier, dst.carrier, h.mapping)
                recover_triple(sigma, src, dst)
                image_decomposition(sigma, src)
                if l1 >= 2:
                    check_block_separation(sigma, src, dst)
                recovered.add((s_name, t_name, l1, l2, _base_map_read_off(sigma, src, dst)))
                maps += 1
    assert (len(calls), len(recovered), maps) == (123, 123, 219)


def _base_map_read_off(sigma, src, dst):
    """h(s), the middle of sigma(0, s, 0) or the target zero, read one
    carrier index at a time."""
    h = [dst.base.zero] * src.base.order
    for s in src.nonzero_base:
        image = sigma.mapping[src.encode(0, s, 0)]
        if image != 0:
            h[s] = dst.decode(image)[1]
    return tuple(h)


def test_each_target_base_gets_its_own_product_law_verdict():
    """One source extension recovers the same base map, the identity of
    chain(3), from the same map table into the rank-one extensions of
    chain(3) and of C2^0, which list their identity, idempotent or g, and
    zero at the same indices.  It is a homomorphism into chain(3) and not
    into C2^0, where g * g = 1; alternated calls get each target's own
    verdict, the one a fresh source extension gets."""
    S, T = chain(3), cyclic_group_with_zero(2)
    assert (S.order, S.zero, S.identity) == (T.order, T.zero, T.identity)
    src = brandt_extension(S, 1)
    targets = [brandt_extension(S, 1), brandt_extension(T, 1)]
    identity = tuple(range(src.carrier.order))
    sigmas = [Homomorphism(src.carrier, dst.carrier, identity) for dst in targets]
    expected = [
        recover_triple(sigma, brandt_extension(S, 1), dst) for sigma, dst in zip(sigmas, targets)
    ]
    assert expected[0] == identity_triple(S, 1)
    assert expected[1].reason.startswith("recovered base map fails the product law")
    for _ in range(2):
        for sigma, dst, verdict in zip(sigmas, targets, expected):
            assert _base_map_read_off(sigma, src, dst) == (0, 1, 2)
            assert recover_triple(sigma, src, dst) == verdict


def test_warm_calculus_caches_match_the_references():
    """On every zero-fixing map of the completeness_rows() grid and of the
    bases of the benchmark's triple sweep at lam1 <= lam2 <= 3, two rounds
    of recover_triple and image_decomposition on the same extensions, the
    second with every cache warm, return what the references return on
    fresh extensions over fresh, equal bases."""
    corpus = acceptance_corpus()
    sources = [two_element(), chain(3), cyclic_group_with_zero(2), cyclic_group_with_zero(3)]
    targets = [*sources, rect_band_with_unit_and_zero(), b2_with_identity()]
    grid = [(corpus[s], corpus[t], l1, l2) for s, t, l1, l2, *_ in completeness_rows()]
    grid += [(S, T, l1, l2) for S in sources for T in targets for l1, l2 in RANKS]
    maps = 0
    for S, T, l1, l2 in grid:
        src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
        sigmas = [
            sigma
            for sigma in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)
            if sigma.mapping[0] == 0
        ]
        src0, dst0 = brandt_extension(fresh(S), l1), brandt_extension(fresh(T), l2)
        expected = []
        for sigma in sigmas:
            unmemoized = Homomorphism(src0.carrier, dst0.carrier, sigma.mapping)
            image_globals = sorted(sigma.image)
            reads = [sigma.mapping[src.encode(0, s, 0)] for s in src.nonzero_base]
            T0 = reference_subsemigroup(dst.carrier, sorted({sigma.mapping[0], *reads}))
            ext0 = brandt_extension(T0, l1)
            witness = reference_image_witness(unmemoized, src0, ext0, image_globals)
            verdict = reference_recover_triple(unmemoized, src0, dst0)
            expected.append((verdict, T0, ext0.carrier.table, witness))
        for _ in range(2):
            for sigma, (verdict, T0, table0, witness) in zip(sigmas, expected):
                assert recover_triple(sigma, src, dst) == verdict
                got_T0, got_witness = image_decomposition(sigma, src)
                assert got_T0 == T0 and got_witness.source.table == table0
                assert got_witness.mapping == witness
        maps += len(sigmas)
    assert maps > 2000


def test_calculus_validates_no_member_list(monkeypatch):
    """recover_triple, image_decomposition and check_block_separation on
    every zero-fixing map of the completeness_rows() grid call
    core._sorted_elements not at all: image_decomposition hands the member
    tuples it sorts itself to the subsemigroup builder, where going through
    subsemigroup validated both of them again, 438 calls.  Each placement
    list check_block_separation returns is already in (a, b) order."""
    calls = []
    validate = core._sorted_elements

    def counting(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(core, "_sorted_elements", counting)
    maps = placements = 0
    for s_name, t_name, l1, l2, *_ in completeness_rows():
        src, dst, homs = _homs_between_extensions(s_name, t_name, l1, l2)
        for h in homs:
            if h.mapping[0] == 0:
                recover_triple(h, src, dst)
                image_decomposition(h, src)
                if l1 >= 2:
                    placed = check_block_separation(h, src, dst)
                    assert placed == tuple(sorted(placed))
                    placements += 1
                maps += 1
    assert (len(calls), maps) == (0, 219)
    assert placements > 0


@pytest.mark.parametrize("lam1", [-1, 0])
def test_enumerate_triples_rejects_rank_below_one(lam1):
    S = example_e()
    with pytest.raises(ShapeError):
        enumerate_triples(S, S, lam1, 2)


def test_recover_rejects_band_target():
    src, dst, mapping = ex2_13_data()
    sigma = check_homomorphism(mapping, src.carrier, dst.carrier)
    verdict = recover_triple(sigma, src, dst)
    assert isinstance(verdict, NotClassifiable)
    assert "maximal subgroup" in verdict.reason


def test_recover_rejects_anchored_matrix_unit_target():
    src, dst, mapping = ex2_5_data()
    sigma = check_homomorphism(mapping, src.carrier, dst.carrier)
    verdict = recover_triple(sigma, src, dst)
    assert isinstance(verdict, NotClassifiable)


def test_recover_requires_nontrivial():
    b2x = matrix_units_extension(2)
    zero_map = check_homomorphism([0] * 5, b2x.carrier, b2x.carrier)
    with pytest.raises(TrivialInput):
        recover_triple(zero_map, b2x, b2x)


def _planted(defect, plant, reason):
    """A case of the test below, its id naming the defect planted."""
    return pytest.param(plant, reason, id=f"<lambda>-{defect}")


PLANTED_DEFECTS = [
    _planted(
        "anchor unit maps to zero",
        lambda ext: (ext.encode(0, ext.base.identity, 0), 0),
        r"unit \(0,1,0\) maps to zero",
    ),
    _planted(
        "anchor unit image is off the diagonal",
        lambda ext: (ext.encode(0, ext.base.identity, 0), ext.encode(0, ext.base.identity, 1)),
        "reconstruction differs at carrier index {where}$",
    ),
    _planted(
        "anchor image middle is not idempotent",
        lambda ext: (ext.encode(0, ext.base.identity, 0), ext.encode(0, 2, 0)),
        "recovered base map fails the product law",
    ),
    (lambda ext: (ext.encode(1, ext.base.identity, 0), 0), r"unit \(1,1,0\) maps to zero"),
    _planted(
        r"unit \(1,1,0\) image leaves the anchor column",
        lambda ext: (ext.encode(1, ext.base.identity, 0), ext.encode(1, ext.base.identity, 1)),
        "reconstruction differs at carrier index {where}$",
    ),
    _planted(
        "diagonal block image leaks outside the anchor block",
        lambda ext: (ext.encode(0, 2, 0), ext.encode(1, 2, 1)),
        "reconstruction differs at carrier index {where}$",
    ),
    (
        lambda ext: (ext.encode(0, 2, 0), ext.encode(0, 1, 0)),
        "recovered base map fails the product law",
    ),
    (
        lambda ext: (ext.encode(1, ext.base.identity, 0), ext.encode(1, 1, 0)),
        r"weight '\(1,1\)' outside the maximal subgroup at '1'",
    ),
    (
        lambda ext: (ext.encode(1, ext.base.identity, 0), ext.encode(0, ext.base.identity, 0)),
        "index map is not injective",
    ),
    (lambda ext: (ext.encode(0, 2, 1), 0), "reconstruction differs at carrier index {where}$"),
]


@pytest.mark.parametrize("plant, reason", PLANTED_DEFECTS)
def test_recover_triple_reports_each_planted_defect(plant, reason):
    """One image of the identity on the rank-2 extension of B2 with an
    identity, replaced as ``plant`` says, is reported by the check that
    catches it ({where} is the replaced index).  The maps are built by hand
    and are not homomorphisms, so a defect no homomorphism can show, such as
    a unit image off the anchor column, is caught by the product law or the
    reconstruction."""
    # base labels 0, (1,1), (1,2), (2,1), (2,2), 1 at indices 0..5; H(1) = {1}
    ext = brandt_extension(b2_with_identity(), 2)
    identity = tuple(range(ext.carrier.order))
    sigma = Homomorphism(source=ext.carrier, target=ext.carrier, mapping=identity)
    assert recover_triple(sigma, ext, ext) == identity_triple(ext.base, 2)
    mapping = list(identity)
    where, image = plant(ext)
    mapping[where] = image
    sigma = Homomorphism(source=ext.carrier, target=ext.carrier, mapping=tuple(mapping))
    verdict = recover_triple(sigma, ext, ext)
    assert isinstance(verdict, NotClassifiable)
    assert re.search(reason.format(where=where), verdict.reason), verdict.reason


def test_planted_defects_get_their_verdicts_again_on_one_extension():
    """The cases above, planted into maps out of one extension object and
    run twice in turn, each call after every verdict the earlier calls
    left, get their reasons each time; the identity map between them
    still recovers the identity triple."""
    ext = brandt_extension(b2_with_identity(), 2)
    identity = tuple(range(ext.carrier.order))
    cases = []
    for case in PLANTED_DEFECTS:
        plant, reason = getattr(case, "values", case)
        where, image = plant(ext)
        mapping = list(identity)
        mapping[where] = image
        sigma = Homomorphism(source=ext.carrier, target=ext.carrier, mapping=tuple(mapping))
        cases.append((sigma, reason.format(where=where)))
    unit = Homomorphism(source=ext.carrier, target=ext.carrier, mapping=identity)
    first = [recover_triple(sigma, ext, ext) for sigma, _ in cases]
    for _ in range(2):
        for (sigma, reason), verdict in zip(cases, first):
            again = recover_triple(sigma, ext, ext)
            assert isinstance(again, NotClassifiable) and again == verdict
            assert re.search(reason, again.reason), again.reason
            assert recover_triple(unit, ext, ext) == identity_triple(ext.base, 2)


def test_recover_triple_matches_the_reference_on_every_map():
    """recover_triple returns the triple, or the reason, that the reference
    with its anchor, column and leak checks returns, on every non-trivial
    homomorphism of the corpus, C3^0 and three targets that are not
    classifiable (rect, B2 with an identity, and the rank-2 matrix units
    with an identity and a new zero), at lam1 <= lam2 <= 3 up to (2, 3),
    zero-moving maps included."""
    bases = oracle_grid_bases()
    maps = zero_moving = 0
    verdicts = set()
    for S, T in itertools.product(bases, repeat=2):
        for l1, l2 in RANKS[:-1]:
            src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
            for sigma in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True):
                verdict = recover_triple(sigma, src, dst)
                assert verdict == reference_recover_triple(sigma, src, dst), sigma.mapping
                verdicts.add(getattr(verdict, "reason", "triple").split(" ")[0])
                maps += 1
                zero_moving += sigma.mapping[0] != 0
    assert (maps, zero_moving) == (7390, 1128)
    assert verdicts == {"triple", "reconstruction", "weight", "recovered"}


def test_image_witness_matches_the_map_it_was_verified_as():
    """On the acceptance-corpus grid, zero-moving maps included, the
    unverified witness of image_decomposition is the map read off every
    representative of each diagonal image, which all agree, passes the
    all-pairs product-law check and is a bijection onto the image."""
    corpus = list(acceptance_corpus().values())
    checked = zero_moving = 0
    for S, T in itertools.product(corpus, repeat=2):
        for l1, l2 in ((1, 1), (1, 2), (2, 2), (2, 3)):
            src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
            for sigma in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True):
                T0, witness = image_decomposition(sigma, src)
                ext0 = brandt_extension(T0, l1)
                image_globals = sorted(set(sigma.mapping))
                image = reference_subsemigroup(dst.carrier, image_globals)
                assert witness.source.table == ext0.carrier.table
                assert witness.target.table == image.table
                expected = reference_image_witness(sigma, src, ext0, image_globals)
                assert witness.mapping == expected
                reference_check_homomorphism(expected, ext0.carrier, image)
                assert sorted(expected) == list(range(image.order))
                checked += 1
                zero_moving += sigma.mapping[0] != 0
    assert checked > 100 and zero_moving > 0


def test_an_equal_copy_of_the_carrier_is_accepted():
    """Carriers are compared by identity first, then by value: a map on an
    equal but distinct copy of the carrier is still accepted, and one on a
    carrier that differs only in its labels still raises Mismatch."""
    ext = brandt_extension(chain(3), 2)
    identity = tuple(range(ext.carrier.order))
    copy = dataclasses.replace(ext.carrier)
    assert copy == ext.carrier and copy is not ext.carrier
    sigma = Homomorphism(source=copy, target=copy, mapping=identity)
    triple = identity_triple(dataclasses.replace(ext.base), 2)
    assert recover_triple(sigma, ext, ext) == triple
    assert induced_hom(triple, ext, ext).mapping == identity
    assert image_decomposition(sigma, ext)[1].mapping == identity
    assert len(check_block_separation(sigma, ext, ext)) == 4
    compose_and_check(sigma, sigma, ext)

    other = dataclasses.replace(ext.carrier, labels=tuple(f"e{i}" for i in identity))
    foreign = Homomorphism(source=other, target=other, mapping=identity)
    into_other = Homomorphism(source=copy, target=other, mapping=identity)
    relabeled_base = identity_triple(dataclasses.replace(ext.base, labels=("a", "b", "c")), 2)
    for call in (
        lambda: recover_triple(foreign, ext, ext),
        lambda: recover_triple(into_other, ext, ext),
        lambda: image_decomposition(foreign, ext),
        lambda: check_block_separation(into_other, ext, ext),
        lambda: compose_and_check(foreign, foreign, ext),
        lambda: induced_hom(relabeled_base, ext, ext),
    ):
        with pytest.raises(Mismatch):
            call()


def _defective(defect):
    """A map and the (source, target) extensions handed with it, one input
    wrong as ``defect`` says."""
    b2x = matrix_units_extension(2)
    identity = Homomorphism(source=b2x.carrier, target=b2x.carrier, mapping=tuple(range(5)))
    if defect == "trivial map":
        zero = Homomorphism(source=b2x.carrier, target=b2x.carrier, mapping=(0,) * 5)
        return zero, b2x, b2x
    if defect == "foreign extension":
        return identity, brandt_extension(chain(3), 2), b2x
    ext = brandt_extension(orthogonal_sum([two_element(), two_element()])[0], 2)
    sigma = Homomorphism(
        source=ext.carrier, target=ext.carrier, mapping=tuple(range(ext.carrier.order))
    )
    return sigma, ext, ext


@pytest.mark.parametrize(
    "defect, expected",
    [
        ("trivial map", TrivialInput),
        ("foreign extension", Mismatch),
        ("source base without identity", NoIdentity),
    ],
)
def test_each_precondition_defect_raises_one_type(defect, expected):
    """The four checks on a map out of an extension agree on the exception
    each input defect raises.  induced_hom takes a triple instead: handed a
    foreign extension it raises Mismatch, and no triple over a source base
    without identity can be made (identity_triple raises NoIdentity); the
    constant-zero triple is an ordinary triple, so a trivial map is no
    defect there."""
    sigma, src, dst = _defective(defect)
    calls = {
        "recover_triple": lambda: recover_triple(sigma, src, dst),
        "image_decomposition": lambda: image_decomposition(sigma, src),
        "check_block_separation": lambda: check_block_separation(sigma, src, dst),
        "compose_and_check": lambda: compose_and_check(sigma, sigma, src),
    }
    if defect == "foreign extension":
        calls["induced_hom"] = lambda: induced_hom(identity_triple(two_element(), 2), src, dst)
    elif defect == "source base without identity":
        calls["induced_hom"] = lambda: induced_hom(identity_triple(src.base, 2), src, dst)
    raised = {}
    for name, call in calls.items():
        try:
            call()
            raised[name] = None
        except Exception as exc:
            raised[name] = type(exc)
    assert raised == dict.fromkeys(calls, expected)


def test_compose_triples_neutrality_and_associativity():
    E = example_e()
    t = ex2_14_triple()
    eps = identity_triple(E, 2)
    assert compose_triples(eps, t) == t
    assert compose_triples(t, eps) == t
    ts = enumerate_triples(E, E, 2, 2)
    for x in ts[:3]:
        for y in ts[:3]:
            for z in ts[:3]:
                assert compose_triples(compose_triples(x, y), z) == compose_triples(
                    x, compose_triples(y, z)
                )


def test_compose_triples_mismatch():
    t = ex2_14_triple()
    other = identity_triple(two_element(), 2)
    with pytest.raises(Mismatch):
        compose_triples(t, other)


def test_functor_preserves_composition_with_collapse():
    E = example_e()
    ext = brandt_extension(E, 2)
    t = ex2_14_triple()
    sig = induced_hom(t, ext, ext)
    tt = compose_triples(t, t)
    assert tt.is_trivial
    assert induced_hom(tt, ext, ext).mapping == compose_homs(sig, sig).mapping


def test_compose_and_check_on_matrix_unit_endos():
    b2x = matrix_units_extension(2)
    homs = enumerate_homs(b2x.carrier, b2x.carrier, nontrivial_only=True)
    for h1 in homs:
        for h2 in homs:
            assert not compose_and_check(h1, h2, b2x).is_trivial


def test_compose_and_check_trivial_composition():
    E = example_e()
    ext = brandt_extension(E, 2)
    sig = induced_hom(ex2_14_triple(), ext, ext)
    composite = compose_and_check(sig, sig, ext)
    assert composite.is_trivial
    assert composite.mapping == compose_homs(sig, sig).mapping


def test_recover_rejects_reverse_direction():
    from brandt.corpus import b2_with_identity

    src = matrix_units_extension(2)
    big = b2_with_identity()
    dst = brandt_extension(big, 1)
    mapping = [0] * src.carrier.order
    for i in range(1, 5):
        mapping[i] = dst.encode(0, big.index_of(src.carrier.labels[i]), 0)
    sigma = check_homomorphism(mapping, src.carrier, dst.carrier)
    assert not sigma.is_trivial
    with pytest.raises(Mismatch):
        recover_triple(sigma, src, dst)


def test_composites_over_two_idempotent_targets_stay_nontrivial():
    """When the middle base has only the identity and the zero as
    idempotents, composing non-trivial maps cannot collapse."""
    for T in (two_element(), cyclic_group_with_zero(2)):
        mid = brandt_extension(T, 2)
        for S in (two_element(), example_e()):
            src = brandt_extension(S, 2)
            homs1 = enumerate_homs(src.carrier, mid.carrier, nontrivial_only=True)
            homs2 = enumerate_homs(mid.carrier, mid.carrier, nontrivial_only=True)
            for h1 in homs1:
                for h2 in homs2:
                    assert not compose_and_check(h1, h2, src).is_trivial


def test_compose_and_check_rejects_trivial_input():
    b2x = matrix_units_extension(2)
    ident = check_homomorphism(tuple(range(5)), b2x.carrier, b2x.carrier)
    zero_map = check_homomorphism([0] * 5, b2x.carrier, b2x.carrier)
    with pytest.raises(TrivialInput):
        compose_and_check(ident, zero_map, b2x)


def test_image_decomposition_identity():
    b2x = matrix_units_extension(2)
    ident = induced_hom(identity_triple(two_element(), 2), b2x, b2x)
    T0, witness = image_decomposition(ident, b2x)
    assert T0.order == 2
    assert witness.target.order == 5


def test_image_decomposition_collapsing_map():
    E = example_e()
    ext = brandt_extension(E, 2)
    sig = induced_hom(ex2_14_triple(), ext, ext)
    T0, witness = image_decomposition(sig, ext)
    assert T0.order == 2
    assert witness.target.order == 2 * 2 * (T0.order - 1) + 1 == 5
    assert witness.is_injective and witness.is_surjective


def test_image_decomposition_moved_zero():
    src, dst, mapping = ex2_6_data()
    sigma = check_homomorphism(mapping, src.carrier, dst.carrier)
    T0, witness = image_decomposition(sigma, src)
    # the image's zero is a non-zero element of the codomain
    assert sigma.mapping[0] != 0
    assert T0.order == 2 and witness.target.order == 5


def test_image_decomposition_sweep_with_group_bases():
    """Images of extensions of a group with zero decompose over a group
    with zero."""
    G = cyclic_group_with_zero(2)
    src = brandt_extension(G, 2)
    homs = enumerate_homs(src.carrier, src.carrier, nontrivial_only=True)
    assert homs
    for h in homs:
        T0, witness = image_decomposition(h, src)
        assert witness.target.order == 4 * (T0.order - 1) + 1
        # T0 is a group with zero: every nonzero element is a unit
        units = [
            x
            for x in range(T0.order)
            if x != T0.zero
            and any(
                T0.table[x][y] == T0.identity and T0.table[y][x] == T0.identity
                for y in range(T0.order)
            )
        ]
        assert set(units) == set(range(T0.order)) - {T0.zero}


def test_image_decomposition_structures_match_their_validated_builds():
    # T0, its extension and the image are wrapped without Light's test
    corpus = list(acceptance_corpus().values())
    built = 0
    for S, T in itertools.product(corpus, repeat=2):
        for l1, l2 in ((1, 1), (1, 2), (2, 2), (2, 3)):
            src, dst = brandt_extension(S, l1), brandt_extension(T, l2)
            for sigma in enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True):
                T0, witness = image_decomposition(sigma, src)
                for C in (T0, witness.source, witness.target):
                    assert_matches_validated(C)
                    built += 1
    assert built > 1000


def test_image_decomposition_rejects_trivial():
    b2x = matrix_units_extension(2)
    zero_map = check_homomorphism([0] * 5, b2x.carrier, b2x.carrier)
    with pytest.raises(TrivialInput):
        image_decomposition(zero_map, b2x)


def _image_defect(defect):
    """Source and target extensions and a hand-built map between them,
    not a homomorphism, that breaks the image structure as ``defect``
    says."""
    two1 = brandt_extension(two_element(), 1)  # 0 and (0,1,0)
    b2x, b3x = matrix_units_extension(2), matrix_units_extension(3)
    if defect == "diagonal image absorbs the image of the zero":
        # T0 = {0, (0,x1,0)} has the zero 0, not sigma(0) = (0,x1,0)
        dst = brandt_extension(chain(3), 1)
        return two1, dst, (dst.encode(0, 1, 0), 0)
    if defect == "T0 is a group":
        # T0 = {(0,1,0), (0,g,0)} has no zero at all
        dst = brandt_extension(cyclic_group_with_zero(2), 1)
        return two1, dst, (dst.encode(0, 0, 0), dst.encode(0, 1, 0))
    if defect == "diagonal image squares to zero":
        return two1, b2x, (0, b2x.encode(0, b2x.base.identity, 1))
    if defect == "an off-diagonal unit vanishes":
        mapping = list(range(5))
        mapping[b2x.encode(0, b2x.base.identity, 1)] = 0
        return b2x, b2x, tuple(mapping)
    # the rank-2 extension of chain(3) onto the B2 inside B3: the diagonal
    # block collapses onto the unit (0,1,0), so T0 has order 2 and the
    # witness reads only the (a,x0,b), where (0,x0,1) and (1,x0,0) share an
    # image; (0,x1,1), which is not read, fills the image up to order 5
    src = brandt_extension(chain(3), 2)
    image = {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (1, 1)}
    mapping = [0] * src.carrier.order
    for (a, b), (mu, nu) in image.items():
        for s in src.nonzero_base:
            mapping[src.encode(a, s, b)] = b3x.encode(mu, b3x.base.identity, nu)
    mapping[src.encode(0, 1, 1)] = b3x.encode(1, b3x.base.identity, 0)
    return src, b3x, tuple(mapping)


BROKEN_IMAGES = [
    ("diagonal image absorbs the image of the zero", "image zero is not the zero"),
    ("T0 is a group", "image zero is not the zero"),
    ("diagonal image squares to zero", "diagonal block image is not a monoid"),
    (
        "an off-diagonal unit vanishes",
        "image order 4 differs from the rebuilt extension order 5",
    ),
    ("a witness value repeats", "decomposition witness is not bijective"),
]


@pytest.mark.parametrize("defect, message", BROKEN_IMAGES)
def test_image_decomposition_reports_each_broken_image(defect, message):
    """Each ConformanceError of image_decomposition is reached by a map
    built by hand, which no homomorphism could be: a T0 whose zero is not
    the image of the zero, or which has none; a T0 without identity; an
    image smaller than the extension of T0; and a witness that repeats a
    value on an image of the right order."""
    src, dst, mapping = _image_defect(defect)
    sigma = Homomorphism(source=src.carrier, target=dst.carrier, mapping=mapping)
    with pytest.raises(ConformanceError, match=message):
        image_decomposition(sigma, src)


def test_broken_images_raise_again_and_store_nothing_new():
    """The cases above, each built once and run twice in turn on the same
    extensions, raise their ConformanceError each time, and a repeated call
    leaves both carriers' memos as it found them."""
    cases = [(_image_defect(defect), message) for defect, message in BROKEN_IMAGES]
    for round_ in range(2):
        for (src, dst, mapping), message in cases:
            sigma = Homomorphism(source=src.carrier, target=dst.carrier, mapping=mapping)
            keys = set(src.carrier._memo), set(dst.carrier._memo)
            with pytest.raises(ConformanceError, match=message):
                image_decomposition(sigma, src)
            if round_:
                assert (set(src.carrier._memo), set(dst.carrier._memo)) == keys


def test_block_separation_on_clean_endomorphisms():
    b2x = matrix_units_extension(2)
    for h in enumerate_homs(b2x.carrier, b2x.carrier, nontrivial_only=True):
        blocks = check_block_separation(h, b2x, b2x)
        assert [ab for ab, _ in blocks] == [(a, b) for a in range(2) for b in range(2)]
        assert len({blk for _, blk in blocks}) == 2 * 2


def test_block_separation_hypothesis_gate():
    src, dst, mapping = ex2_6_data()
    sigma = check_homomorphism(mapping, src.carrier, dst.carrier)
    with pytest.raises(HypothesisUnmet):
        check_block_separation(sigma, src, dst)
    src5, dst5, mapping5 = ex2_5_data()
    sigma5 = check_homomorphism(mapping5, src5.carrier, dst5.carrier)
    with pytest.raises(HypothesisUnmet):
        check_block_separation(sigma5, src5, dst5)
    # rank-one sources carry no matrix-unit hypothesis at all
    E = example_e()
    one = brandt_extension(E, 1)
    h = induced_hom(ex2_14_triple_rank1(), one, one)
    with pytest.raises(HypothesisUnmet):
        check_block_separation(h, one, one)


@pytest.mark.parametrize(
    "plant, message",
    [
        (lambda ext: (0, ext.encode(0, ext.base.identity, 0)), "zero image is not the zero"),
        (lambda ext: (ext.encode(0, ext.base.identity, 1), 0), r"unit \(0,1,1\) maps to zero"),
        (
            lambda ext: (ext.encode(0, ext.base.identity, 1), ext.encode(0, ext.base.identity, 0)),
            "distinct units share a coordinate block",
        ),
        (
            lambda ext: (ext.encode(0, 1, 1), ext.encode(1, 1, 1)),
            r"image of \(0,x1,1\) leaves its block",
        ),
        (lambda ext: (ext.encode(0, 1, 1), 0), "vanishing pattern of x1 is not uniform"),
        (
            # the first index past the (0, 0) block, where the (0, 1) block starts
            lambda ext: (ext.encode(0, 1, 0), ext.block_starts[0][0] + len(ext.nonzero_base)),
            r"image of \(0,x1,0\) leaves its block",
        ),
    ],
)
def test_block_separation_reports_each_planted_defect(plant, message):
    """One image of the identity on the rank-2 extension of chain(3)
    (x0 > x1 > x2, x1 at index 1), replaced as ``plant`` says, trips its
    own check."""
    ext = brandt_extension(chain(3), 2)
    identity = tuple(range(ext.carrier.order))
    sigma = Homomorphism(source=ext.carrier, target=ext.carrier, mapping=identity)
    assert len(check_block_separation(sigma, ext, ext)) == 4
    mapping = list(identity)
    where, image = plant(ext)
    mapping[where] = image
    sigma = Homomorphism(source=ext.carrier, target=ext.carrier, mapping=tuple(mapping))
    with pytest.raises(ConformanceError, match=message):
        check_block_separation(sigma, ext, ext)


def ex2_14_triple_rank1():
    E = example_e()
    base = check_homomorphism((1, 2, 2), E, E)
    return make_triple(base, (1,), (0,), 1)


def test_restriction_to_unit_copy_detects_triviality():
    """A hom on a rank >= 2 extension is trivial iff its restriction to the
    embedded matrix-unit copy is constant."""
    for S in (example_e(), cyclic_group_with_zero(2)):
        ext = brandt_extension(S, 2)
        unit_copy = [0] + [
            ext.encode(a, ext.base.identity, b) for a in range(2) for b in range(2)
        ]
        for h in enumerate_homs(ext.carrier, ext.carrier):
            restricted = {h.mapping[i] for i in unit_copy}
            assert h.is_trivial == (len(restricted) == 1)
