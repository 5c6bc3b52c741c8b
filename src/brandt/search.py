"""Combinatorial searches: congruences, matrix-unit copies, isomorphism.

All searches are deterministic: candidates are tried in ascending index order,
so the first witness found is the lexicographically smallest one the search
order can produce.  The isomorphism search is the hom-search kernel of
``homs`` run injectively; it has no propagator of its own.

A matrix-unit copy is an embedding of ``matrix_units(lam)`` verified by
``check_homomorphism``.  Its diagonal idempotents are chosen depth first,
keeping only those orthogonal to every one already chosen, so a target
without a copy is dismissed without trying every combination.

Congruences are closed along the Cayley graph, as in Freese, "Computing
congruences efficiently" (Algebra Universalis 59, 2008): a merged pair is
translated by the generators of ``FiniteSemigroup.generators`` only, on
both sides, and the closure stops as soon as one class is left.  The
principal congruences of one call share their work (Torpey, "Semigroup
congruences: computational techniques and theoretical applications", PhD
thesis, St Andrews, 2019): if the closure of θ(a, b) merges a pair (c, d)
whose θ(c, d) is already known, then θ(c, d) ⊆ θ(a, b), so its classes are
unioned whole and untranslated, and a universal θ(c, d) settles θ(a, b) at
once.  The pairs are closed in ascending order of w(a) + w(b), where
w(x) = |x·S| + |S·x| is the product count the hom search sorts by.  No
translation raises w, so the pairs a closure reaches have mostly been
closed already and are met as known congruences.  The lattice is the join
closure of the principal congruences, and two congruences join as
equivalences, since that join is a congruence already.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional

from .construct import matrix_units
from .core import (
    BudgetExceeded,
    FiniteSemigroup,
    NotHomomorphism,
    NoZero,
    ShapeError,
    _sorted_elements,
    _memoized,
)
from .homs import (
    DEFAULT_BUDGET,
    Homomorphism,
    _compile,
    _search_maps,
    check_homomorphism,
)

DEFAULT_CONGRUENCE_BOUND = 40


def _rows_and_columns(t) -> tuple[list, list]:
    """x·S and S·x for every element x of the table t: its row and its
    column, as sets, read at C level (the columns through one ``zip``)."""
    return list(map(set, t)), list(map(set, zip(*t)))


def _normalize_partition(find, n) -> tuple[int, ...]:
    ids = {}
    out = []
    for i in range(n):
        r = find(i)
        if r not in ids:
            ids[r] = len(ids)
        out.append(ids[r])
    return tuple(out)


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union_classes(parent: list, partition) -> int:
    """Union each class of ``partition`` in the forest ``parent``, without
    translations; returns the number of merges."""
    merges = 0
    first: dict = {}
    for i, c in enumerate(partition):
        ri, rj = _find(parent, i), _find(parent, first.setdefault(c, i))
        if ri != rj:
            parent[ri] = rj
            merges += 1
    return merges


def _close(S: FiniteSemigroup, pairs, known: list) -> tuple[int, ...]:
    """``congruence_closure``, given the principal congruences ``known``.

    ``known[c * n + d]``, c < d, is θ(c, d) or None.  A merging pair (c, d)
    with θ(c, d) known has it inside the closure, so its classes are
    unioned whole; they are closed under translation already, so no
    translations are queued.  A universal θ(c, d) ends the closure at once.
    """
    n = S.order
    t = S.table
    gens = S.generators
    parent = list(range(n))
    classes = n

    work = list(pairs)
    while work and classes > 1:
        a, b = work.pop()
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        theta = known[a * n + b if a < b else b * n + a]
        if theta is not None:
            if not any(theta):  # universal
                return theta
            classes -= _union_classes(parent, theta)
            continue
        parent[rb] = ra
        classes -= 1
        ta, tb = t[a], t[b]
        for g in gens:
            x, y = ta[g], tb[g]
            if x != y:
                work.append((x, y))
            tg = t[g]
            x, y = tg[a], tg[b]
            if x != y:
                work.append((x, y))
    return _normalize_partition(lambda x: _find(parent, x), n)


def congruence_closure(S: FiniteSemigroup, pairs) -> tuple[int, ...]:
    """Smallest congruence containing the given pairs, as a partition tuple.

    Pair-closure along generator translations (Freese, "Computing
    congruences efficiently", Algebra Universalis 59, 2008): whenever a pair
    (a, b) merges, (a*g, b*g) and (g*a, g*b) are queued for every generator g
    of ``S.generators``.  That suffices: the merged pairs generate the
    partition as an equivalence, so it is closed under translation by each
    generator, and every element is a product of generators, so it is closed
    under every translation one factor at a time.  Stops as soon as a
    single class is left.  The same loop, given the principal congruences
    already known, computes those of ``congruence_lattice`` and
    ``is_congruence_free`` (``_principal_congruences``); here nothing is
    known.  Raises ShapeError, before closing, on a pair that does not have
    two elements and on an element that is not an int or lies outside
    range(S.order).
    """
    pairs = [tuple(p) for p in pairs]
    bad = next((p for p in pairs if len(p) != 2), None)
    if bad is not None:
        raise ShapeError(f"pair {bad!r} does not have two elements")
    _sorted_elements(S, (x for p in pairs for x in p), "pair element")
    return _close(S, pairs, [None] * (S.order * S.order))


def _principal_congruences(S: FiniteSemigroup):
    """Yield ((a, b), θ(a, b)) for every pair a < b, in ascending order of
    w(a) + w(b), where w is ``homs._product_count``; ties stay
    lexicographic.

    Each closure reuses the earlier ones: if it merges a pair (c, d) whose
    θ(c, d) is known, then θ(c, d) ⊆ θ(a, b), so θ(c, d)'s classes join
    whole and untranslated, and a universal θ(c, d) settles θ(a, b).  What
    is merged stays inside θ(a, b), and each merged pair either had its
    translates queued or lies in a congruence, so the result is θ(a, b),
    in any order.  The order makes the reuse pay.  No translation raises w:
    (ag)S ⊆ aS, and S(ag) = (Sa)g is an image of Sa, so w(ag) ≤ w(a), and
    w(ga) ≤ w(a) likewise.  Every pair a closure queues is a translate of
    (a, b), so its w-sum is at most w(a) + w(b), and each one with a
    smaller sum was closed before: it is met as a known congruence and
    unioned, not translated.  The known congruences live only as long as
    the generator; equal ones share one tuple.  Refuses orders above the
    congruence bound, with BudgetExceeded at the first ``next``, rather
    than degrade silently.
    """
    n = S.order
    if n > DEFAULT_CONGRUENCE_BOUND:
        raise BudgetExceeded(f"order {n} exceeds the congruence bound {DEFAULT_CONGRUENCE_BOUND}")
    rows, cols = _rows_and_columns(S.table)
    w = [len(row) + len(col) for row, col in zip(rows, cols)]
    pairs = sorted(itertools.combinations(range(n), 2), key=lambda p: w[p[0]] + w[p[1]])
    known: list = [None] * (n * n)
    distinct: dict = {}
    for a, b in pairs:
        theta = _close(S, [(a, b)], known)
        theta = known[a * n + b] = distinct.setdefault(theta, theta)
        yield (a, b), theta


def _join(p, q) -> tuple[int, ...]:
    """The join of two congruences as equivalences, which is a congruence.

    Two elements of the join are linked by a chain whose steps lie in p or
    in q; translating the chain keeps each step in p or in q.  So the
    classes of both are unioned, with no translations.
    """
    parent = list(range(len(p)))
    _union_classes(parent, p)
    _union_classes(parent, q)
    return _normalize_partition(lambda x: _find(parent, x), len(p))


def identity_partition(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def universal_partition(n: int) -> tuple[int, ...]:
    return (0,) * n


def is_congruence(S: FiniteSemigroup, partition) -> bool:
    """Check closure under all left and right translations."""
    n = S.order
    t = S.table
    if len(partition) != n:
        return False
    for a in range(n):
        for b in range(a + 1, n):
            if partition[a] != partition[b]:
                continue
            for x in range(n):
                if partition[t[x][a]] != partition[t[x][b]]:
                    return False
                if partition[t[a][x]] != partition[t[b][x]]:
                    return False
    return True


def congruence_lattice(S: FiniteSemigroup) -> list[tuple[int, ...]]:
    """All congruences of S, as the join closure of the principal ones.

    The principal congruences come from ``_principal_congruences``: a
    closure that merges a pair (c, d) closed before contains θ(c, d), and
    unions its classes untranslated.  Two congruences join as
    equivalences (``_join``): a chain whose steps lie in either translates
    step by step, so the join is a congruence and needs no translations.
    Past the congruence bound, ``_principal_congruences`` raises BudgetExceeded.
    """
    n = S.order
    found = {identity_partition(n), *(theta for _, theta in _principal_congruences(S))}
    frontier = list(found)
    while frontier:
        fresh = []
        for p in frontier:
            for q in list(found):
                j = _join(p, q)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(found)


def is_congruence_free(S: FiniteSemigroup) -> bool:
    """Exactly two congruences exist: the identity and the universal one.

    Equivalent to every principal congruence of a distinct pair being
    universal, which avoids building the whole lattice.  The principal
    congruences come from ``_principal_congruences``, in ascending order of
    product counts.  Until the first one that is not universal, where the
    scan stops, every known θ(c, d) is universal, so a closure ends at its
    first merged pair (c, d) closed before: θ(a, b) contains θ(c, d).  No
    translation raises the product count, so every translate of (a, b)
    with a smaller sum of counts ends the closure that meets it.
    """
    n = S.order
    universal = universal_partition(n)
    return n >= 2 and all(theta == universal for _, theta in _principal_congruences(S))


def find_matrix_unit_copy(
    T: FiniteSemigroup, lam: int, anchor_zero: bool = False
) -> Optional[Homomorphism]:
    """The first embedding of the rank-lam matrix units into T, or None.

    Branches on the copy's zero w among T's idempotents (T's own zero with
    ``anchor_zero``), then on ascending tuples of pairwise orthogonal
    idempotents above w for the diagonal, then on the (a, b) pairs playing
    the units (0, j) and (j, 0); unit (i, j) is the product (i, 0)(0, j).
    The candidate maps the zero to index 0 and unit (i, j) to 1 + i*lam + j,
    the layout of ``matrix_units(lam)``, and is returned once it is
    injective and ``check_homomorphism`` accepts it.
    """
    if lam < 2:
        raise ShapeError("matrix-unit rank must be at least 2")
    n = T.order
    if lam * lam + 1 > n:
        return None
    if anchor_zero and T.zero is None:
        raise NoZero("anchored search needs a zero")
    t = T.table
    idem = T.idempotents

    def diagonals(w, pool, chosen):
        # pool: the idempotents after chosen[-1] orthogonal to all of chosen;
        # a prefix is dropped once fewer remain than it still needs
        if len(chosen) == lam:
            yield chosen
            return
        for k, e in enumerate(pool):
            rest = [f for f in pool[k + 1 :] if t[e][f] == w and t[f][e] == w]
            if len(rest) >= lam - len(chosen) - 1:
                yield from diagonals(w, rest, chosen + (e,))

    for w in (T.zero,) if anchor_zero else idem:
        pool = [e for e in idem if e != w and t[e][w] == w and t[w][e] == w]
        for diag in diagonals(w, pool, ()):
            f0 = diag[0]
            options = []
            for fj in diag[1:]:
                pairs = [
                    (a, b)
                    for a in range(n)
                    if a != w and t[f0][a] == a and t[a][fj] == a
                    for b in range(n)
                    if b != w and t[fj][b] == b and t[b][f0] == b
                    and t[a][b] == f0 and t[b][a] == fj
                ]
                if not pairs:
                    break
                options.append(pairs)
            else:
                for choice in itertools.product(*options):
                    row = (f0,) + tuple(a for a, _ in choice)
                    col = (f0,) + tuple(b for _, b in choice)
                    mapping = [w] + [t[c][r] for c in col for r in row]
                    if len(set(mapping)) == len(mapping):
                        try:
                            return check_homomorphism(mapping, matrix_units(lam), T)
                        except NotHomomorphism:
                            pass
    return None


def matrix_unit_exclusion(T: FiniteSemigroup, lam: int) -> bool:
    """No rank-2 copy at T's zero and no rank-lam copy anywhere in T.

    This is the rank-dependent exclusion; ``excludes_b2`` is the plain
    membership test used for classifiable targets.  The anchored rank-2
    search runs first: it settles every extension of rank 2 or more, which
    holds such a copy.  The flag is computed once per T and lam.
    """
    if T.zero is None:
        raise NoZero("the rank-dependent exclusion needs a zero")
    if lam < 2:
        raise ShapeError("matrix-unit rank must be at least 2")
    return _memoized(T, ("matrix_unit_exclusion", lam), _excludes_matrix_units, T, lam)


def _excludes_matrix_units(T: FiniteSemigroup, lam: int) -> bool:
    return (
        find_matrix_unit_copy(T, 2, anchor_zero=True) is None
        and find_matrix_unit_copy(T, lam) is None
    )


def excludes_b2(T: FiniteSemigroup) -> bool:
    """No subsemigroup of T is a copy of the five-element matrix units."""
    return find_matrix_unit_copy(T, 2, anchor_zero=False) is None


def _power_profile(t, x):
    seen = {x: 0}
    y = x
    k = 0
    while True:
        y = t[y][x]
        k += 1
        if y in seen:
            return (seen[y], k - seen[y])  # (tail, period)
        seen[y] = k


def _element_profiles(S: FiniteSemigroup):
    """Per element x: is x idempotent, its power profile, |x·S|, |S·x|, and
    whether x lies in x·S and in S·x; each is kept by every isomorphism."""
    t = S.table
    rows, cols = _rows_and_columns(t)
    return [
        (t[x][x] == x, _power_profile(t, x), len(row), len(col), x in row, x in col)
        for x, (row, col) in enumerate(zip(rows, cols))
    ]


def iso_search(A: FiniteSemigroup, B: FiniteSemigroup, budget: int = DEFAULT_BUDGET):
    """Find an isomorphism A -> B, or None.

    Prunes by order and per-element invariants (``_element_profiles``):
    B's elements are grouped by profile once, in ascending order, and each
    x of A is offered the group of its own profile, so equal profiles share
    one candidate list.  Then it runs the injective hom-search kernel in
    index order; its filters keep the candidates' order, so the returned
    map is the lexicographically smallest witness.  Returns the map as a
    tuple.  Raises BudgetExceeded past ``budget`` steps of the kernel
    (products defined or checked, and candidate filters); every element is
    a generator, so an element the earlier ones generate is never branched
    on.
    """
    if A.order != B.order:
        return None
    n = A.order
    pa, pb = _element_profiles(A), _element_profiles(B)
    if Counter(pa) != Counter(pb):
        return None
    groups: dict = {}
    for y, profile in enumerate(pb):
        groups.setdefault(profile, []).append(y)
    candidates = [groups[profile] for profile in pa]
    levels = _compile(A, range(n))
    return next(_search_maps(A, B, levels, candidates, injective=True, budget=budget), None)
