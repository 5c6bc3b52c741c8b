import itertools

import pytest

from brandt import (
    ConformanceError,
    HypothesisUnmet,
    IllFormedTriple,
    Mismatch,
    TrivialInput,
    check_block_separation,
    check_homomorphism,
    compose_and_check,
    compose_homs,
    compose_triples,
    enumerate_homs,
    enumerate_triples,
    enumerate_zero_moving,
    identity_triple,
    image_decomposition,
    induced_hom,
    make_triple,
    recover_triple,
)
from brandt.category import NotClassifiable
from brandt.classify import classify
from brandt.construct import brandt_extension, matrix_units_extension
from brandt.corpus import (
    acceptance_corpus,
    chain,
    cyclic_group_with_zero,
    example_e,
    two_element,
)
from brandt.fixtures import ex2_13_data, ex2_14_triple, ex2_5_data, ex2_6_data
from brandt.homs import Homomorphism


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

                moving = enumerate_zero_moving(src, dst)
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
    with pytest.raises(Mismatch):
        enumerate_zero_moving(ext2, ext2)
    assert enumerate_zero_moving(brandt_extension(S, 1), ext2) != []


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


def test_image_decomposition_rejects_trivial():
    b2x = matrix_units_extension(2)
    zero_map = check_homomorphism([0] * 5, b2x.carrier, b2x.carrier)
    with pytest.raises(TrivialInput):
        image_decomposition(zero_map, b2x)


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
            ext.unit_index(a, b) for a in range(2) for b in range(2)
        ]
        for h in enumerate_homs(ext.carrier, ext.carrier):
            restricted = {h.mapping[i] for i in unit_copy}
            assert h.is_trivial == (len(restricted) == 1)
