"""Morphism triples between Brandt extensions.

A triple (base, weights, index_map) packages a zero-preserving monoid
homomorphism h: S -> T, a weighting u of the source index set into the
maximal subgroup H(e) at e = (1_S)h, and an injective index map.  It induces
a homomorphism between the extensions by

    (a, s, b)  |->  (phi(a), u(a) * h(s) * u(b)^-1, phi(b))

with everything whose middle would vanish sent to the zero.  Induced maps
always fix the zero.  For c in H(e) the triples (h, u, phi) and
(c*h*c^-1, u*c^-1, phi) induce the same map, and no other two triples do, so
the canonical triples, those with u(0) = e, induce each map exactly once.
At a rank-one source there is one more class, the maps that move the zero: a
base homomorphism h with h(0) != 0 placed on a single diagonal block.
enumerate_triples and extension_homs take their triples from one generator
over one search for the base homomorphisms.  H(0) = {0}, so the constant-zero
base is an ordinary triple, with zero weights, inducing the zero map.  For
targets whose base monoid has central idempotents and no embedded rank-2
matrix units, every non-trivial homomorphism between extensions is either
induced by a triple, and then recovered from its values on the unit blocks,
or, at a rank-one source, one of the zero-moving maps; the two classes are
disjoint.

induced_hom, recover_triple, extension_homs and the checks on extension
homomorphisms take the source and target extensions the caller already
holds; none of them rebuilds an extension it is handed.  They stride whole
coordinate blocks: the block (a, b) is m consecutive carrier indices from
block_starts[a][b], (a, s, b) at offset position[s], and the extension's
tabulated coords and positions stand in for per-index decoding and encoding.

Each fact is checked by one function, once per call.  make_triple
validates triple data a caller hands in.  The triples the calculus builds
itself, in _triples and recover_triple, are built directly: the docstrings
of those two prove every check they skip, and recover_triple keeps the two
a recovered triple can fail.  recover_triple checks the product law of a
recovered base map once per source extension, target base and base map,
not once per map.  _require_map is the precondition of recover_triple,
image_decomposition, check_block_separation and compose_and_check: a
non-constant map (TrivialInput) out of the given extension (Mismatch),
whose base is a monoid (NoIdentity).  _check_ranks requires a positive
source rank and a monoid with zero as the source base, then
_check_target a monoid with zero as the target base and lam1 <= lam2
(Mismatch); recover_triple, whose source base _require_map has checked,
calls _check_target alone.  These raise rather than return
NotClassifiable; ``homs --classify`` prints their messages as the
verdict.  The maps the calculus builds, induced, zero-moving and image
witnesses, are homomorphisms by construction, with the proofs in the
docstrings of induced_hom, extension_homs and image_decomposition, so none
is verified again; brute force checks them in the tests and sweeps.
core.maximal_subgroup gives H(e) with its inverses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Union

from .core import (
    ConformanceError,
    FiniteSemigroup,
    HypothesisUnmet,
    IllFormedTriple,
    Mismatch,
    NotHomomorphism,
    ShapeError,
    TrivialInput,
    _memoized,
    _subsemigroup,
    _tuple_getter,
    maximal_subgroup,
    require_monoid_with_zero,
)
from .construct import BrandtExtension, brandt_extension
from .homs import (
    Homomorphism,
    check_homomorphism,
    compose_homs,
    enumerate_homs,
)
from .search import matrix_unit_exclusion


@dataclass(frozen=True)
class MorphismTriple:
    """Validated (base, weights, index_map) data.

    A trivial base (the constant-zero map) is an ordinary triple: its anchor
    idempotent is the target zero, and H(0) = {0} holds every weight.
    """

    base: Homomorphism
    weights: tuple[int, ...]
    index_map: tuple[int, ...]
    index_codomain: int

    @property
    def idempotent(self) -> int:
        return self.base.mapping[self.base.source.identity]

    @property
    def is_trivial(self) -> bool:
        return self.base.is_trivial

    @property
    def lam(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return (
            f"MorphismTriple(h={list(self.base.mapping)}, u={list(self.weights)}, "
            f"phi={list(self.index_map)})"
        )


def make_triple(
    base: Homomorphism,
    weights,
    index_map,
    index_codomain: int,
) -> MorphismTriple:
    """Validate triple data from a caller.  In order: both bases are monoids
    with zero (NoZero, NoIdentity), then, raising IllFormedTriple, h fixes
    the zero, h(1_S) is the zero only if h is constant, every weight lies in
    H(h(1_S)) (H(0) = {0}), and the index map covers the weights' non-empty
    index set, injectively, into range(index_codomain)."""
    S, T = base.source, base.target
    require_monoid_with_zero(S, "triple source")
    require_monoid_with_zero(T, "triple target")
    if base.preserves_zero is not True:
        raise IllFormedTriple("base map does not send zero to zero")
    e = base.mapping[S.identity]
    if e == T.zero and not base.is_trivial:
        raise IllFormedTriple("identity collapses to zero but the map is not constant")
    weights = tuple(weights)
    index_map = tuple(index_map)
    outside = _weight_outside(T, e, maximal_subgroup(T, e).inverses, weights)
    if outside:
        raise IllFormedTriple(outside)
    if not weights or len(weights) != len(index_map):
        raise IllFormedTriple("weights and index map must cover the same index set")
    if len(set(index_map)) != len(index_map):
        raise IllFormedTriple(_NOT_INJECTIVE)
    if any(not (0 <= v < index_codomain) for v in index_map):
        raise IllFormedTriple("index map leaves the target index set")
    return MorphismTriple(
        base=base,
        weights=weights,
        index_map=index_map,
        index_codomain=index_codomain,
    )


_NOT_INJECTIVE = "index map is not injective"


def _weight_outside(T: FiniteSemigroup, e: int, group, weights) -> str:
    """The reason naming the first weight that is not a key of ``group``,
    the inverses in H(e), or "" when every weight lies in H(e)."""
    for w in weights:
        if w not in group:
            return f"weight {T.labels[w]!r} outside the maximal subgroup at {T.labels[e]!r}"
    return ""


def identity_triple(S: FiniteSemigroup, lam: int) -> MorphismTriple:
    """The neutral morphism: identity base, identity weights and index map."""
    base = Homomorphism(source=S, target=S, mapping=tuple(range(S.order)))
    return make_triple(base, (S.identity,) * lam, tuple(range(lam)), lam)


def _same(x, y) -> bool:
    """x == y, deciding the usual case of one shared object without
    comparing tables."""
    return x is y or x == y


def _require_map(sigma: Homomorphism, source_ext: BrandtExtension, target=None):
    """The precondition on a map out of an extension: sigma is not constant
    (TrivialInput), starts at source_ext and ends at ``target`` when given
    (Mismatch), and the source base is a monoid with zero (NoIdentity)."""
    if sigma.is_trivial:
        raise TrivialInput("trivial map")
    if not _same(sigma.source, source_ext.carrier) or (
        target is not None and not _same(sigma.target, target)
    ):
        raise Mismatch("homomorphism does not connect the given extensions")
    require_monoid_with_zero(source_ext.base, "source base")


def induced_hom(
    triple: MorphismTriple,
    source_ext: BrandtExtension,
    target_ext: BrandtExtension,
) -> Homomorphism:
    """The extension homomorphism induced by a triple (the functor's action).

    A trivial base induces the constant-to-zero map.  Extensions other than
    the triple's raise Mismatch.  The map is a homomorphism by construction,
    so it is not verified.  Write e = h(1_S) and u(b)^-1 for the inverse of
    u(b) in H(e).  For (a, s, b) * (c, t, d) the image middles multiply to
    u(a) * h(s) * u(b)^-1 * u(c) * h(t) * u(d)^-1.  If b = c this is
    u(a) * h(s) * e * h(t) * u(d)^-1 = u(a) * h(st) * u(d)^-1, since
    h(s) * e = h(s * 1_S).  If b != c then phi(b) != phi(c), as phi is
    injective, and both the product of the images and the image of the
    product are the zero.  A middle u(a) * h(s) * u(b)^-1 is the zero
    exactly when h(s) is, because u(a) and u(b) are units of H(e) and
    e * h(s) * e = h(s); so a product st that h kills goes to the zero, as
    the formula says.
    """
    S, T = triple.base.source, triple.base.target
    if not _same(source_ext.base, S) or source_ext.lam != triple.lam:
        raise Mismatch("source extension does not match the triple")
    if not _same(target_ext.base, T) or target_ext.lam != triple.index_codomain:
        raise Mismatch("target extension does not match the triple")
    inv = maximal_subgroup(T, triple.idempotent).inverses
    mapping = _induced_mapping(triple, source_ext, target_ext, inv)
    return Homomorphism(source_ext.carrier, target_ext.carrier, mapping)


def _induced_mapping(
    triple: MorphismTriple,
    source_ext: BrandtExtension,
    target_ext: BrandtExtension,
    inv,
) -> tuple[int, ...]:
    """The carrier map the triple induces between its own extensions, given
    the inverses ``inv`` in H(h(1_S)); induced_hom checks the extensions and
    wraps it."""
    mapping = [0] * source_ext.carrier.order
    T = triple.base.target
    tz = T.zero
    tt = T.table
    u = triple.weights
    phi = triple.index_map
    position = target_ext.position
    h = triple.base.mapping
    # the block positions and h-images of the base elements h does not kill
    images = [(p, h[s]) for p, s in enumerate(source_ext.nonzero_base) if h[s] != tz]
    for a, src_row in enumerate(source_ext.block_starts):
        left = tt[u[a]]
        dst_row = target_ext.block_starts[phi[a]]
        for b, src in enumerate(src_row):
            right = inv[u[b]]
            dst = dst_row[phi[b]]
            for p, hs in images:
                middle = tt[left[hs]][right]
                if middle == tz:
                    raise ConformanceError("induced middle vanished on a nonzero image")
                mapping[src + p] = dst + position[middle]
    return tuple(mapping)


@dataclass(frozen=True)
class NotClassifiable:
    """Returned when a homomorphism does not fit the triple parametrization."""

    reason: str


def recover_triple(
    sigma: Homomorphism,
    source_ext: BrandtExtension,
    target_ext: BrandtExtension,
) -> Union[MorphismTriple, NotClassifiable]:
    """Recover triple data from a non-trivial extension homomorphism.

    Four facts about a non-trivial homomorphism sigma out of B_lam(S) fix
    where the triple is read (J. M. Howie, *Fundamentals of Semigroup
    Theory*, 1995, ch. 3).  sigma(0, 1, 0) is a nonzero idempotent
    (a', e, a'): were it the zero, sigma would be constant, since every
    (a, s, b) = (a, 1, 0)(0, 1, 0)(0, s, 0)(0, 1, 0)(0, 1, b).  Each
    sigma(b, 1, 0) is nonzero, as sigma(0, 1, b) * sigma(b, 1, 0) =
    sigma(0, 1, 0), and lies in column a', as sigma(b, 1, 0) =
    sigma(b, 1, 0) * sigma(0, 1, 0).  And sigma(0, s, 0) =
    sigma(0, 1, 0) * sigma(0, s, 0) * sigma(0, 1, 0) lies in the block
    (a', a') or is the zero.  So phi(b) and u(b) are the row and middle of
    sigma(b, 1, 0), and h(s) is the middle of sigma(0, s, 0), or the zero.
    u(0) = h(1_S), so the triple is canonical.  A unit image at the zero
    has no coordinates and is the one reason reported before the triple is
    read; otherwise the verdict is the recovered base map's product law,
    a weight outside H(e), phi not injective, or whether the map the
    triple induces reproduces ``sigma`` exactly.  ``sigma`` is a verified
    homomorphism, so that rebuild is not verified again.  The product law
    depends on S, T and h alone and is checked once per source extension,
    target base and h (``_base_verdict``); the rest runs on every call.

    The triple is built without make_triple, whose other checks a
    recovered triple passes by how it is read:
    - both bases are monoids with zero: _require_map checks the source
      base and _check_target the target base;
    - h(0) = 0: h starts as the zero everywhere and only the nonzero
      elements of S are read;
    - h(1_S) is not the zero: h(1_S) = u(0) is the middle of the nonzero
      element sigma(0, 1, 0), and a nonzero element of an extension has a
      nonzero middle;
    - weights and phi have the same length lam1 >= 1, one entry per row
      of source blocks, and phi lies in range(lam2), as each phi(b) is a
      row read from ``coords`` of the target extension.
    The H(e) inverses found for the weight check serve the rebuild.
    """
    _require_map(sigma, source_ext, target_ext.carrier)
    S, T = source_ext.base, target_ext.base
    _check_target(T, source_ext.lam, target_ext.lam)

    one = source_ext.position[S.identity]  # offset of the units in their blocks
    coords = target_ext.coords
    phi, u = [], []
    for b, row in enumerate(source_ext.block_starts):
        img = sigma.mapping[row[0] + one]
        if img == 0:
            return NotClassifiable(f"unit ({b},1,0) maps to zero")
        x, t, _ = coords[img]
        phi.append(x)
        u.append(t)

    start = source_ext.block_starts[0][0]
    diagonal = sigma.mapping[start : start + len(source_ext.nonzero_base)]
    h = [T.zero] * S.order
    for s, img in zip(source_ext.nonzero_base, diagonal):
        if img != 0:
            h[s] = coords[img][1]
    base = _base_verdict(source_ext, T, tuple(h))
    if isinstance(base, NotClassifiable):
        return base
    e = u[0]  # = h(1_S)
    inv = maximal_subgroup(T, e).inverses
    reason = _weight_outside(T, e, inv, u)
    if not reason and len(set(phi)) != len(phi):
        reason = _NOT_INJECTIVE
    if reason:
        return NotClassifiable(reason)
    triple = MorphismTriple(base, tuple(u), tuple(phi), target_ext.lam)
    rebuilt = _induced_mapping(triple, source_ext, target_ext, inv)
    if rebuilt != sigma.mapping:
        first = next(i for i, (x, y) in enumerate(zip(rebuilt, sigma.mapping)) if x != y)
        return NotClassifiable(f"reconstruction differs at carrier index {first}")
    return triple


def _base_verdict(
    source_ext: BrandtExtension, T: FiniteSemigroup, h: tuple
) -> Union[Homomorphism, NotClassifiable]:
    """The product-law verdict on a recovered base map h: S -> T, the
    checked Homomorphism or its NotClassifiable reason.

    It depends on S, T and h alone, and every map out of one extension
    recovers one of few h, so the verdicts are kept on the source extension
    instance, by h, each with the target base it was decided against; an
    entry serves only a call whose target base is that very object.  The
    source extension lives as long as its caller holds it, and the entries
    hold bases and base maps, never a carrier or a map between extensions.
    """
    verdicts = source_ext.__dict__.setdefault("_base_verdicts", {})
    entry = verdicts.get(h)
    if entry is not None and entry[0] is T:
        return entry[1]
    try:
        verdict = check_homomorphism(h, source_ext.base, T)
    except NotHomomorphism as exc:
        verdict = NotClassifiable(f"recovered base map fails the product law: {exc}")
    verdicts[h] = (T, verdict)
    return verdict


def compose_triples(t1: MorphismTriple, t2: MorphismTriple) -> MorphismTriple:
    """Composite morphism: bases compose, weights combine as
    u''(a) = u'(phi(a)) * h'(u(a)), index maps compose."""
    if t1.base.target != t2.base.source:
        raise Mismatch("middle monoid differs")
    if t1.index_codomain != t2.lam:
        raise Mismatch("middle index set differs")
    base = compose_homs(t1.base, t2.base)
    T2 = t2.base.target
    tt = T2.table
    h2 = t2.base.mapping
    weights = tuple(
        tt[t2.weights[t1.index_map[a]]][h2[t1.weights[a]]]
        for a in range(t1.lam)
    )
    index_map = tuple(t2.index_map[t1.index_map[a]] for a in range(t1.lam))
    return make_triple(base, weights, index_map, t2.index_codomain)


def _check_ranks(S: FiniteSemigroup, T: FiniteSemigroup, lam1: int, lam2: int):
    if lam1 < 1:
        raise ShapeError(f"lambda must be positive, got {lam1}")
    require_monoid_with_zero(S, "source base")
    _check_target(T, lam1, lam2)


def _check_target(T: FiniteSemigroup, lam1: int, lam2: int):
    require_monoid_with_zero(T, "target base")
    if lam1 > lam2:
        raise Mismatch("source index set exceeds the target one")


def _triples(homs, lam1: int, lam2: int, canonical: bool = False):
    """The triples over the zero-preserving maps in ``homs``, in list order:
    weights over H(h(1_S))^lam1 in product order, then all injections.
    With ``canonical`` only those with u(0) = h(1_S), one per induced map.

    The callers have passed the bases through _check_ranks, and each h is
    a homomorphism from their search, so the triples are built without
    make_triple, whose checks they pass by construction: h(0) = 0 is the
    filter below; if h(1_S) is the zero then h(s) = h(s) * h(1_S) = 0
    for every s, so h is constant; the weights are lam1 >= 1 members of
    H(h(1_S)); and every index map is an injection of range(lam1) into
    range(lam2), from itertools.permutations.
    """
    injections = list(itertools.permutations(range(lam2), lam1))
    for h in homs:
        S, T = h.source, h.target
        if h.mapping[S.zero] != T.zero:
            continue
        e = h.mapping[S.identity]
        members = maximal_subgroup(T, e).members
        first = (e,) if canonical else members
        for w in itertools.product(first, *[members] * (lam1 - 1)):
            for phi in injections:
                yield MorphismTriple(h, w, phi, lam2)


def enumerate_triples(
    S: FiniteSemigroup,
    T: FiniteSemigroup,
    lam1: int,
    lam2: int,
    nontrivial_only: bool = True,
) -> list[MorphismTriple]:
    """All well-formed triples for the given bases and index sizes.

    Weights range over the full maximal subgroup at the realized idempotent,
    {0} at the constant-zero base, and index maps over all injections, so
    distinct triples may induce the same extension homomorphism.
    extension_homs draws on the same generator and yields each map once.
    """
    _check_ranks(S, T, lam1, lam2)
    homs = enumerate_homs(S, T, nontrivial_only=nontrivial_only)
    return list(_triples(homs, lam1, lam2))


def extension_homs(
    source_ext: BrandtExtension,
    target_ext: BrandtExtension,
) -> tuple[list[Homomorphism], list[Homomorphism]]:
    """The non-trivial homomorphisms built from the base homomorphisms,
    as (induced, zero_moving), each sorted by map table.

    One search finds the non-constant base homomorphisms h: S -> T.  A
    zero-preserving h induces a map from each canonical triple (h, u, phi),
    u(0) = e = h(1_S), which the generator behind enumerate_triples builds
    directly, and every triple-induced map appears exactly once.  At a
    rank-one source, an h with h(0_S) != 0_T gives one zero-moving map per
    target index a, living on the diagonal block (a, a): (0, s, 0) |->
    (a, h(s), a), the extension zero going to (a, h(0_S), a).  The image of
    a moved zero is an idempotent absorbing every image on both sides, so
    at rank two or more the units, and with them every element, would be
    sent to it; there zero_moving is empty.  Both kinds are homomorphisms
    by construction and are not verified: the induced maps by induced_hom's
    proof (their triples are built over these extensions, so its match
    checks are skipped), and a zero-moving map because f = h(0_S) != 0_T
    absorbs h(S), so 0_T is not in h(S) (else f = f * 0_T = 0_T), and
    (0, s, 0) |-> (a, h(s), a) then respects every product inside the one
    block.
    """
    S, T = source_ext.base, target_ext.base
    lam1, lam2 = source_ext.lam, target_ext.lam
    _check_ranks(S, T, lam1, lam2)
    homs = enumerate_homs(S, T, nontrivial_only=True)
    induced = []
    for t in _triples(homs, lam1, lam2, canonical=True):
        inv = maximal_subgroup(T, t.idempotent).inverses
        mapping = _induced_mapping(t, source_ext, target_ext, inv)
        induced.append(Homomorphism(source_ext.carrier, target_ext.carrier, mapping))
    zero_moving = []
    moving = [h for h in homs if h.mapping[S.zero] != T.zero] if lam1 == 1 else []
    # the rank-one source is the zero, then (0, s, 0) in base order
    middles = (S.zero,) + source_ext.nonzero_base
    for h in moving:
        offsets = [target_ext.position[h.mapping[s]] for s in middles]
        for a in range(lam2):
            diagonal = target_ext.block_starts[a][a]
            mapping = tuple(diagonal + p for p in offsets)
            zero_moving.append(Homomorphism(source_ext.carrier, target_ext.carrier, mapping))
    induced.sort(key=lambda sigma: sigma.mapping)
    zero_moving.sort(key=lambda sigma: sigma.mapping)
    return induced, zero_moving


def compose_and_check(
    s1: Homomorphism,
    s2: Homomorphism,
    source_ext: BrandtExtension,
) -> Homomorphism:
    """Compose two non-trivial extension homomorphisms and test the
    kernel-avoidance predicate against the composite's non-triviality.

    The predicate: some unit-block image under s1 escapes the set of elements
    s2 kills.  It must coincide with the composite being non-trivial; a
    disagreement aborts loudly.  Returns the composite.  s2 must not be
    constant either.
    """
    _require_map(s1, source_ext, s2.source)
    if s2.is_trivial:
        raise TrivialInput("expects a non-constant second map")
    composite = compose_homs(s1, s2)
    zero3 = s2.target.zero
    one = source_ext.position[source_ext.base.identity]  # offset of the units
    predicate = any(
        s2.mapping[s1.mapping[start + one]] != zero3
        for row in source_ext.block_starts
        for start in row
    )
    if predicate == composite.is_trivial:
        raise ConformanceError(
            "kernel-avoidance predicate disagrees with the composite's triviality"
        )
    return composite


def image_decomposition(
    sigma: Homomorphism,
    source_ext: BrandtExtension,
) -> tuple[FiniteSemigroup, Homomorphism]:
    """Exhibit the image of a non-trivial extension homomorphism as an
    extension itself.

    Returns the diagonal-block image monoid T0 and an isomorphism w from
    the extension of T0 onto the image subsemigroup.  ``sigma`` must be a
    verified Homomorphism; w is then one by construction and is not
    verified again.  Write z = sigma(0) and, for nonzero s, t = sigma(0, s, 0).
    Since (a, s, b) = (a, 1, 0)(0, s, 0)(0, 1, b), w sends (a, t, b) to

        sigma(a, s, b) = sigma(a, 1, 0) * t * sigma(0, 1, b),

    whichever representative s of t is read, and the zero to z.  Three facts
    give w(x)w(y) = w(xy): t * sigma(0, 1, 0) = t, as
    (0, s, 0)(0, 1, 0) = (0, s, 0); sigma(0, 1, b) * sigma(b, 1, 0) =
    sigma(0, 1, 0); and z absorbs the image of sigma.  So for (a, t, b) and
    (c, t', d) the product of the images is sigma(a, 1, 0) * tt' *
    sigma(0, 1, d) when b = c, which is w(a, tt', d) if tt' != z and z if
    tt' = z, and z when b != c, since then sigma(0, 1, b) * sigma(c, 1, 0)
    = sigma(0) = z.  The order, the bijectivity of w and the zero and
    identity of T0 are still checked; a failure contradicts the guaranteed
    image structure and aborts loudly.  Once the extension of T0 and the
    image have the same order n, w sends n elements into the n positions
    of the image, so it is injective exactly when it is surjective, and
    one test for a repeated value decides bijectivity.  T0 and the image
    are memoized subsemigroups of the target, built from the sorted member
    tuples read here without validating them again.  A target carrier
    built by ``brandt_extension`` shares its memo with every carrier of
    its base and lam, so T0, the image and the extension of T0 are built
    once per target base and lam, not once per carrier.

    What depends on a member set and not on the rest of sigma is set up
    once per set, in the carriers' memos: under (lam, members of T0, z),
    the extension of T0 once T0 has passed its zero and identity checks,
    with the members of T0 in block order; under the image's members, the
    image and each member's position in it; and in the source carrier's
    memo, under lam and the offsets of the representatives, the witness's
    reads of sigma as one ``itemgetter``.  Each entry is a function of its
    carrier's value and its key, and a check that raises stores nothing.
    Every call still reads sigma, checks the order (maps with one image
    can have different T0s) and tests bijectivity.
    """
    _require_map(sigma, source_ext)
    if not isinstance(sigma.target, FiniteSemigroup):
        raise Mismatch("decomposition needs a table-backed target")
    lam = source_ext.lam
    big = sigma.target
    images = sigma.mapping

    z = images[0]
    start = source_ext.block_starts[0][0]
    diagonal = images[start : start + len(source_ext.nonzero_base)]
    # each diagonal image with its first representative: read backwards,
    # the first one is written last
    first = dict(zip(reversed(diagonal), reversed(source_ext.nonzero_base)))
    t0_globals = tuple(sorted({*first, z}))
    ext0, t0_order = _memoized(
        big, ("diagonal_monoid", lam, t0_globals, z), _diagonal_monoid, big, t0_globals, z, lam
    )
    image_globals = tuple(sorted(sigma.image))
    n = len(image_globals)
    if ext0.carrier.order != n:
        raise ConformanceError(
            f"image order {n} differs from the rebuilt extension order {ext0.carrier.order}"
        )
    image_sg, local = _memoized(
        big, ("image_positions", image_globals), _image_positions, big, image_globals
    )

    # (a, t, b) goes to sigma(a, s, b) for the representative s of t
    position = source_ext.position
    offsets = tuple([position[first[g]] for g in t0_order])
    read = _memoized(
        source_ext.carrier, ("witness_reads", lam, offsets), _block_reads, source_ext, offsets
    )
    mapping = (local[z], *map(local.__getitem__, read(images)))
    if len(set(mapping)) != n:
        raise ConformanceError("decomposition witness is not bijective")
    return ext0.base, Homomorphism(ext0.carrier, image_sg, mapping)


def _diagonal_monoid(big: FiniteSemigroup, t0_globals: tuple, z: int, lam: int):
    """The extension over lam indices of the subsemigroup T0 of ``big`` on
    the sorted members t0_globals, once T0 has z as its zero and has an
    identity (ConformanceError otherwise), with the members of T0 in the
    order of the extension's blocks.  Only T0's own zero passes, so its
    memo entry builds the extension once per T0 and lam."""
    T0 = _subsemigroup(big, t0_globals)
    if T0.zero != t0_globals.index(z):
        raise ConformanceError("image zero is not the zero of the diagonal block")
    if T0.identity is None:
        raise ConformanceError("diagonal block image is not a monoid")
    ext0 = brandt_extension(T0, lam)
    return ext0, tuple([t0_globals[t] for t in ext0.nonzero_base])


def _image_positions(big: FiniteSemigroup, image_globals: tuple):
    """The subsemigroup of ``big`` on the sorted members image_globals, with
    the position of each member in it."""
    return _subsemigroup(big, image_globals), dict(zip(image_globals, itertools.count()))


def _block_reads(source_ext: BrandtExtension, offsets: tuple) -> Callable:
    """One C-level read, as a tuple, of the carrier entries at the given
    offsets of every block of source_ext, blocks in carrier order.  It
    depends on the carrier's value and the key's lam and offsets alone."""
    reads = [block + p for row in source_ext.block_starts for block in row for p in offsets]
    return _tuple_getter(reads)


def check_block_separation(
    sigma: Homomorphism,
    source_ext: BrandtExtension,
    target_ext: BrandtExtension,
) -> tuple:
    """Assert the guaranteed image geometry of a non-trivial homomorphism
    into an extension whose base excludes the relevant matrix units.

    Checks: the zero maps to the zero; distinct unit images occupy pairwise
    distinct coordinate blocks; each (a, b) block's images stay inside one
    target block; and an element's vanishing pattern is uniform across index
    pairs.  Returns the ((a, b), (mu, nu)) pairs placing each unit
    (a, 1, b) in its target block, in (a, b) order, as the units are read.
    Raises HypothesisUnmet when the target base fails the exclusion
    hypotheses and ConformanceError when a guaranteed assertion fails.
    A source element whose images vanish in every block passes both
    per-element checks, so it is skipped after one count.
    """
    _require_map(sigma, source_ext, target_ext.carrier)
    lam1 = source_ext.lam
    if lam1 < 2:
        raise HypothesisUnmet("matrix-unit exclusion is defined for rank >= 2 only")
    if not matrix_unit_exclusion(target_ext.base, lam1):
        raise HypothesisUnmet(
            "target base contains the excluded matrix units; nothing is guaranteed"
        )

    if sigma.mapping[0] != 0:
        raise ConformanceError("zero image is not the zero")

    one = source_ext.position[source_ext.base.identity]  # offset of the units
    coords = target_ext.coords
    placed = []
    spans = []  # where each unit's block and its image's block start
    for a in range(lam1):
        for b in range(lam1):
            src = source_ext.block_starts[a][b]
            img = sigma.mapping[src + one]
            if img == 0:
                raise ConformanceError(f"unit ({a},1,{b}) maps to zero")
            mu, _, nu = coords[img]
            placed.append(((a, b), (mu, nu)))
            spans.append((a, b, src, target_ext.block_starts[mu][nu]))
    if len({block for _, block in placed}) != lam1 * lam1:
        raise ConformanceError("distinct units share a coordinate block")

    m2 = len(target_ext.nonzero_base)
    labels = source_ext.base.labels
    images = sigma.mapping
    blocks = len(spans)
    for p, s in enumerate(source_ext.nonzero_base):
        row = [images[src + p] for _, _, src, _ in spans]
        vanished = row.count(0)
        if vanished == blocks:
            continue
        for (a, b, _, dst), img in zip(spans, row):
            if img != 0 and not dst <= img < dst + m2:
                raise ConformanceError(f"image of ({a},{labels[s]},{b}) leaves its block")
        if vanished:
            raise ConformanceError(f"vanishing pattern of {labels[s]} is not uniform")

    return tuple(placed)
