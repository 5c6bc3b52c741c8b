"""Self-contained verification fixtures behind the `verify` CLI command.

Every fixture constructs its own inputs from embedded data, runs its checks,
and reports one FixtureResult; nothing here reads external files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from .category import (
    NotClassifiable,
    check_block_separation,
    compose_and_check,
    compose_triples,
    enumerate_triples,
    extension_homs,
    identity_triple,
    induced_hom,
    make_triple,
    recover_triple,
)
from .classify import classify, idempotents_central
from .construct import (
    bicyclic_with_zero,
    brandt_extension,
    double_extension_witness,
    function_brandt_extension,
    matrix_units,
    matrix_units_extension,
    orthogonal_sum,
)
from .core import HypothesisUnmet, NotHomomorphism
from .corpus import (
    acceptance_corpus,
    chain,
    cyclic_group_with_zero,
    example_e,
    b2_with_identity,
    matrix_units_with_identity_and_new_zero,
    rect_band_with_unit_and_zero,
    semilattice_corpus,
    two_element,
)
from .homs import check_homomorphism, compose_homs, enumerate_homs
from .search import find_matrix_unit_copy, iso_search


@dataclass
class FixtureResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)

    def note(self, text: str):
        self.lines.append(text)

    def check(self, ok: bool, text: str):
        self.lines.append(("ok  " if ok else "FAIL") + " " + text)
        if not ok:
            self.passed = False


# The 17-entry map from the rank-4 matrix units into the extension of the
# matrix-unit monoid with adjoined identity; indices are 1-based unit
# coordinates, middles are unit labels of the target base.
EX2_5_ENTRIES = {
    (1, 1): (1, "(1,1)", 1),
    (2, 2): (1, "(2,2)", 1),
    (3, 3): (2, "(1,1)", 2),
    (4, 4): (2, "(2,2)", 2),
    (1, 2): (1, "(1,2)", 1),
    (2, 1): (1, "(2,1)", 1),
    (1, 3): (1, "(1,1)", 2),
    (3, 1): (2, "(1,1)", 1),
    (1, 4): (1, "(1,2)", 2),
    (4, 1): (2, "(2,1)", 1),
    (2, 3): (1, "(2,1)", 2),
    (3, 2): (2, "(1,2)", 1),
    (2, 4): (1, "(2,2)", 2),
    (4, 2): (2, "(2,2)", 1),
    (3, 4): (2, "(1,2)", 2),
    (4, 3): (2, "(2,1)", 2),
}

# Map from the rank-2 matrix units into the extension of the rectangular
# band with adjoined unity and zero.
EX2_13_ENTRIES = {
    (1, 1): (1, "(1,1)", 1),
    (1, 2): (1, "(1,2)", 2),
    (2, 2): (2, "(2,2)", 2),
    (2, 1): (2, "(2,1)", 1),
}

# Map from the rank-2 matrix units into the rank-2 extension of the
# pair-encoded monoid with zero; middles are (i, j) tokens.
EX2_12_ENTRIES = {
    (1, 1): (0, (0, 0), 0),
    (1, 2): (0, (0, 1), 1),
    (2, 2): (1, (1, 1), 1),
    (2, 1): (1, (1, 0), 0),
}


def _unit_map(src, dst, entries) -> tuple[int, ...]:
    """The carrier map of ``entries``: the unit (i, 1, j) of the matrix-unit
    extension ``src`` goes to (a, lab, b) of ``dst``, indices 1-based and
    lab a label of dst's base, and the zero to the zero."""
    mapping = [0] * src.carrier.order
    for (i, j), (a, lab, b) in entries.items():
        mapping[src.encode(i - 1, 0, j - 1)] = dst.encode(
            a - 1, dst.base.index_of(lab), b - 1
        )
    return tuple(mapping)


def _verified(res: FixtureResult, mapping, source, target, text: str):
    """The homomorphism ``mapping`` defines, its verification noted on
    ``res`` as ``text``; None, noted as a failure, when it is rejected."""
    try:
        sigma = check_homomorphism(mapping, source, target)
    except NotHomomorphism as exc:
        res.check(False, f"map rejected: {exc}")
        return None
    res.check(True, text)
    return sigma


@lru_cache(maxsize=None)
def ex2_5_data():
    src = matrix_units_extension(4)
    dst = brandt_extension(b2_with_identity(), 4)
    return src, dst, _unit_map(src, dst, EX2_5_ENTRIES)


def run_ex2_5() -> FixtureResult:
    """The 17-entry unit map verifies, and every one-entry edit breaks it."""
    res = FixtureResult("ex2-5", True)
    src, dst, mapping = ex2_5_data()
    text = "embedded 17-entry map verifies as a homomorphism"
    sigma = _verified(res, mapping, src.carrier, dst.carrier, text)
    if sigma is None:
        return res
    bad = 0
    total = 0
    for idx in range(src.carrier.order):
        for wrong in range(dst.carrier.order):
            if wrong == mapping[idx]:
                continue
            total += 1
            perturbed = list(mapping)
            perturbed[idx] = wrong
            try:
                check_homomorphism(perturbed, src.carrier, dst.carrier)
                bad += 1
            except NotHomomorphism:
                pass
    res.check(bad == 0, f"all {total} single-entry perturbations rejected")
    verdict = recover_triple(sigma, src, dst)
    res.check(
        isinstance(verdict, NotClassifiable),
        f"map is outside the triple parametrization ({getattr(verdict, 'reason', '')})",
    )
    return res


@lru_cache(maxsize=None)
def ex2_13_data():
    src = matrix_units_extension(2)
    dst = brandt_extension(rect_band_with_unit_and_zero(), 2)
    return src, dst, _unit_map(src, dst, EX2_13_ENTRIES)


def run_ex2_13() -> FixtureResult:
    """A homomorphism into a band-based extension escapes the parametrization."""
    res = FixtureResult("ex2-13", True)
    src, dst, mapping = ex2_13_data()
    text = "embedded map verifies as a homomorphism"
    sigma = _verified(res, mapping, src.carrier, dst.carrier, text)
    if sigma is None:
        return res
    verdict = recover_triple(sigma, src, dst)
    res.check(
        isinstance(verdict, NotClassifiable),
        f"recovery fails ({getattr(verdict, 'reason', '')})",
    )
    res.check(
        not idempotents_central(dst.base),
        "target base has non-central idempotents",
    )
    return res


def run_ex2_12() -> FixtureResult:
    """A map into the function-backed infinite extension verifies pointwise."""
    res = FixtureResult("ex2-12", True)
    src = matrix_units_extension(2)
    dst = function_brandt_extension(bicyclic_with_zero(), 2)
    mapping: list = ["0"] * src.carrier.order
    for (i, j), token in EX2_12_ENTRIES.items():
        mapping[src.encode(i - 1, 0, j - 1)] = token
    text = "map verifies against the function-backed codomain"
    hom = _verified(res, mapping, src.carrier, dst, text)
    if hom is not None:
        res.check(not hom.is_trivial, "map is non-trivial")
    return res


@lru_cache(maxsize=None)
def ex2_14_triple():
    E = example_e()
    base = check_homomorphism((1, 2, 2), E, E)  # a -> b, b -> c, c -> c
    return make_triple(base, (1, 1), (0, 1), 2)


def run_ex2_14() -> FixtureResult:
    """An induced map that is non-trivial yet squares to the trivial one."""
    res = FixtureResult("ex2-14", True)
    E = example_e()
    ext = brandt_extension(E, 2)
    t = ex2_14_triple()
    sig = induced_hom(t, ext, ext)
    res.check(not sig.is_trivial, "induced map is non-trivial")
    ok = all(
        sig.mapping[ext.encode(a, 0, b)] == ext.encode(a, 1, b)
        and sig.mapping[ext.encode(a, 1, b)] == 0
        for a in range(2)
        for b in range(2)
    )
    res.check(ok, "induced map matches the displayed formula")
    square = compose_homs(sig, sig)
    res.check(square.is_trivial, "composite with itself is trivial")
    tt = compose_triples(t, t)
    res.check(tt.is_trivial, "composed triple is trivial-bound")
    sq2 = induced_hom(tt, ext, ext)
    res.check(
        sq2.mapping == square.mapping,
        "functor image of the composed triple equals the composed images",
    )
    return res


@lru_cache(maxsize=None)
def ex2_6_data():
    T7 = matrix_units_with_identity_and_new_zero(2)
    S = chain(3)
    src = brandt_extension(S, 2)
    dst = brandt_extension(T7, 2)
    old_zero = T7.index_of("0")
    mapping = [dst.encode(0, old_zero, 0)] * src.carrier.order
    for idx in range(1, src.carrier.order):
        b, _, g = src.decode(idx)
        unit = T7.index_of(f"({b + 1},{g + 1})")
        mapping[idx] = dst.encode(0, unit, 0)
    return src, dst, tuple(mapping)


def run_ex2_6() -> FixtureResult:
    """A homomorphism that drags the zero off the zero once the target base
    contains the excluded matrix units."""
    res = FixtureResult("ex2-6", True)
    T7 = matrix_units_with_identity_and_new_zero(2)
    src, dst, mapping = ex2_6_data()
    text = "embedded map verifies as a homomorphism"
    sigma = _verified(res, mapping, src.carrier, dst.carrier, text)
    if sigma is None:
        return res
    try:
        check_block_separation(sigma, src, dst)
        res.check(False, "block separation unexpectedly applied")
    except HypothesisUnmet as exc:
        res.check(True, f"block separation skipped: {exc}")
    z_img = sigma.mapping[0]
    res.check(z_img != 0, "source zero maps to a non-zero element")
    if z_img != 0:
        a, s, b = dst.decode(z_img)
        res.note(f"  zero image decodes to ({a},{T7.labels[s]},{b})")
    copy = find_matrix_unit_copy(T7, 2, anchor_zero=False)
    res.check(copy is not None, "target base contains rank-2 matrix units")
    if copy is not None:
        res.check(
            copy.mapping[0] != T7.zero,
            "found copy's zero differs from the ambient zero",
        )
    res.check(
        find_matrix_unit_copy(T7, 2, anchor_zero=True) is None,
        "no copy anchored at the ambient zero exists",
    )
    return res


@lru_cache(maxsize=None)
def _homs_between_extensions(S_name, T_name, l1, l2):
    corpus = acceptance_corpus()
    src = brandt_extension(corpus[S_name], l1)
    dst = brandt_extension(corpus[T_name], l2)
    homs = enumerate_homs(src.carrier, dst.carrier, nontrivial_only=True)
    return src, dst, homs


def completeness_rows(lam_pairs=((1, 1), (1, 2), (2, 2))):
    """The completeness sweep over every ordered pair of acceptance-corpus
    monoids and every index-size pair in ``lam_pairs``.

    Returns rows (source, target, l1, l2, brute, from_triples, zero_moving):
    the non-trivial extension homomorphisms found by brute force, and the
    triple-induced and, at rank-one sources, zero-moving ones that
    ``extension_homs`` builds from one base search, each as a set of map
    tables.
    """
    corpus = acceptance_corpus()
    rows = []
    for s_name in corpus:
        for t_name in corpus:
            for l1, l2 in lam_pairs:
                src, dst, homs = _homs_between_extensions(s_name, t_name, l1, l2)
                brute, induced, zero_moving = (
                    {h.mapping for h in maps}
                    for maps in (homs, *extension_homs(src, dst))
                )
                rows.append((s_name, t_name, l1, l2, brute, induced, zero_moving))
    return rows


def run_thm2_10() -> FixtureResult:
    """Completeness sweep: brute-force homomorphism sets against the
    generated sets, point by point.  The generated side is the
    triple-induced maps together with, at rank-one sources, the maps that
    move the zero; the two parts must be disjoint and their union must equal
    the brute-force set exactly.

    This is the library's own completeness statement (module docstring of
    ``category``), which names the rank-one zero-moving class.  The repo holds
    only the paper's abstract, so whether the paper's Theorem 2.10 assumes
    rank two or more, or zero-preserving maps, and so excludes this class,
    is not checked against the paper's wording here."""
    res = FixtureResult("thm2-10", True)
    for s_name, t_name, l1, l2, brute, from_triples, zero_moving in completeness_rows():
        generated = from_triples | zero_moving
        tag = f"{s_name} -> {t_name}, lam=({l1},{l2})"
        if from_triples & zero_moving:
            res.check(False, f"{tag}: a triple-induced map also moves the zero")
            continue
        if generated - brute:
            res.check(False, f"{tag}: generated map missed by brute force")
            continue
        if l1 >= 2 and any(m[0] != 0 for m in brute):
            res.check(False, f"{tag}: a brute-force map moves the zero")
            continue
        extra = brute - generated
        res.check(
            not extra,
            f"{tag}: brute {len(brute)} {'vs' if extra else '='} "
            f"{len(from_triples)} from triples + {len(zero_moving)} zero-moving",
        )
        if extra:
            res.note(f"  {len(extra)} brute-force maps outside the parametrization")
    return res


def run_prop1_3() -> FixtureResult:
    """Double-extension witnesses verify for the whole corpus grid."""
    res = FixtureResult("prop1-3", True)
    corpus = acceptance_corpus()
    for name, S in corpus.items():
        for l1 in (1, 2):
            for l2 in (1, 2):
                w = double_extension_witness(S, l1, l2)
                ok = w.is_injective and w.is_surjective
                res.check(
                    ok,
                    f"{name}: lam=({l1},{l2}) witness bijective on order {w.source.order}",
                )
    w = double_extension_witness(two_element(), 2, 2)
    res.check(
        w.source.order == 17 and w.target.order == 17,
        "twice-extended two-element monoid has 17 elements",
    )
    iso = iso_search(w.source, matrix_units(4))
    res.check(iso is not None, "it is isomorphic to the rank-4 matrix units")
    return res


def run_prop1_9() -> FixtureResult:
    """Extension of an orthogonal sum against the sum of extensions."""
    res = FixtureResult("prop1-9", True)
    b2 = matrix_units(2)
    glued, _ = orthogonal_sum([b2, b2])
    left = brandt_extension(glued, 2).carrier
    parts = [brandt_extension(b2, 2).carrier for _ in range(2)]
    right, _ = orthogonal_sum(parts)
    res.check(
        left.order == 33 and right.order == 33,
        f"both sides have order {left.order}",
    )
    witness = iso_search(left, right)
    res.check(witness is not None, "isomorphism witness found")
    if witness is not None:
        hom = check_homomorphism(witness, left, right)
        res.check(hom.is_injective and hom.is_surjective, "witness re-verified")
    return res


def run_cor1_10() -> FixtureResult:
    """Structure flags transfer between a base and its extensions."""
    res = FixtureResult("cor1-10", True)
    flags = attrgetter("regular", "inverse", "primitive_inverse", "congruence_free")
    for name, S in acceptance_corpus().items():
        for lam in (1, 2, 3):
            ext = brandt_extension(S, lam).carrier
            agree = flags(classify(S)) == flags(classify(ext))
            res.check(
                agree,
                f"{name}, lam={lam}: regular/inverse/primitive/congruence-free agree",
            )
    return res


def run_prop2_16() -> FixtureResult:
    """Kernel-avoidance predicate matches composite non-triviality."""
    res = FixtureResult("prop2-16", True)
    corpus = acceptance_corpus()
    names = list(corpus)
    exercised = 0
    for s_name in names:
        for t_name in names:
            src1, _, homs1 = _homs_between_extensions(s_name, t_name, 2, 2)
            if not homs1:
                continue
            for r_name in names:
                _, _, homs2 = _homs_between_extensions(t_name, r_name, 2, 2)
                for h1 in homs1:
                    for h2 in homs2:
                        compose_and_check(h1, h2, src1)
                        exercised += 1
    res.check(exercised >= 10, f"{exercised} composable pairs exercised")

    E = example_e()
    ext = brandt_extension(E, 2)
    sig = induced_hom(ex2_14_triple(), ext, ext)
    res.check(
        compose_and_check(sig, sig, ext).is_trivial,
        "the collapsing self-composition is trivial with a false predicate",
    )
    return res


def run_prop3_3() -> FixtureResult:
    """Distinct triples between semilattices induce distinct maps."""
    res = FixtureResult("prop3-3", True)
    corpus = semilattice_corpus()
    for s_name, S in corpus.items():
        for t_name, T in corpus.items():
            for l1, l2 in ((1, 1), (1, 2), (2, 2)):
                src = brandt_extension(S, l1)
                dst = brandt_extension(T, l2)
                triples = enumerate_triples(S, T, l1, l2)
                mappings = {induced_hom(t, src, dst).mapping for t in triples}
                res.check(
                    len(mappings) == len(triples),
                    f"{s_name} -> {t_name}, lam=({l1},{l2}): "
                    f"{len(triples)} triples, {len(mappings)} distinct maps",
                )
    return res


def run_functor() -> FixtureResult:
    """Identity and composition laws of the extension functor."""
    res = FixtureResult("functor", True)
    corpus = {
        "two-element": two_element(),
        "semilattice-abc": example_e(),
        "z2-with-zero": cyclic_group_with_zero(2),
    }
    for name, S in corpus.items():
        ext = brandt_extension(S, 2)
        eps = identity_triple(S, 2)
        ident = induced_hom(eps, ext, ext)
        res.check(
            ident.mapping == tuple(range(ext.carrier.order)),
            f"{name}: identity morphism induces the identity automorphism",
        )

    checked = 0
    ext_cache = {name: brandt_extension(S, 2) for name, S in corpus.items()}
    triple_cache = {
        (a, b): enumerate_triples(corpus[a], corpus[b], 2, 2, nontrivial_only=False)
        for a in corpus
        for b in corpus
    }
    hom_cache = {
        key: [induced_hom(t, ext_cache[key[0]], ext_cache[key[1]]) for t in ts]
        for key, ts in triple_cache.items()
    }
    for a in corpus:
        for b in corpus:
            for c in corpus:
                t1s, f1s = triple_cache[(a, b)], hom_cache[(a, b)]
                t2s, f2s = triple_cache[(b, c)], hom_cache[(b, c)]
                for t1, f1 in zip(t1s, f1s):
                    for t2, f2 in zip(t2s, f2s):
                        comp = compose_triples(t1, t2)
                        lhs = induced_hom(comp, ext_cache[a], ext_cache[c])
                        rhs = compose_homs(f1, f2)
                        if lhs.mapping != rhs.mapping:
                            res.check(
                                False,
                                f"functor breaks composition on {a} -> {b} -> {c}",
                            )
                            return res
                        checked += 1
    res.check(True, f"composition preserved on {checked} morphism pairs")

    # neutrality and associativity on a sample of morphisms
    E = example_e()
    t = ex2_14_triple()
    eps = identity_triple(E, 2)
    res.check(
        compose_triples(eps, t) == t and compose_triples(t, eps) == t,
        "identity morphism is neutral",
    )
    ts = triple_cache[("semilattice-abc", "semilattice-abc")]
    assoc = all(
        compose_triples(compose_triples(x, y), z)
        == compose_triples(x, compose_triples(y, z))
        for x in ts[:4]
        for y in ts[:4]
        for z in ts[:4]
    )
    res.check(assoc, "composition is associative on a sample")
    return res


FIXTURES = {
    "prop1-3": run_prop1_3,
    "prop1-9": run_prop1_9,
    "cor1-10": run_cor1_10,
    "ex2-5": run_ex2_5,
    "ex2-6": run_ex2_6,
    "ex2-12": run_ex2_12,
    "ex2-13": run_ex2_13,
    "ex2-14": run_ex2_14,
    "thm2-10": run_thm2_10,
    "prop2-16": run_prop2_16,
    "prop3-3": run_prop3_3,
    "functor": run_functor,
}
