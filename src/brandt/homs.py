"""Homomorphism checking, and the one backtracking kernel for map search.

``check_homomorphism`` checks only the right Cayley edges: a map with
h(a·g) = h(a)·h(g) for each element a and each generator g of the source
is a homomorphism, by induction on word length (Froidure and Pin,
"Algorithms for computing finite semigroups", 1997).  It runs over the
generators ``source.generators``, so it costs n·|G| products, not n².

``_search_maps`` enumerates product-respecting maps between table-backed
semigroups with a step budget.  It branches on a set of generators of the
source, which the caller passes and which must generate it.  The branch
order is fixed, so before searching ``_compile`` decides, for each
generator, which elements its image decides and which products it must
check, as a straight-line program.  The checks are not every new right
Cayley edge but the rules of a Froidure–Pin presentation: under a word
order that puts the words of the elements decided at earlier levels
first, the least words that are not the least word of their element.
They form a complete rewriting system, so a map that respects them is a
homomorphism (the proof is in ``_compile``); on the rank-3 extension of
the rectangular band monoid they are 35 products against 189 edges.
Before it branches on a generator the search drops the candidates that
clash on a rule whose other ends are already decided (forward checking:
Haralick and Elliott, "Increasing tree search efficiency for constraint
satisfaction problems", 1980).  For each candidate the program then
defines images along the least words and runs each check as soon as the
three images it reads are decided, so a failing candidate meets the check
that rejects it before any define it does not need (the fail-first
principle of the same paper).  ``enumerate_homs`` runs the kernel over
``generating_set``, ``search.iso_search`` over every element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional, Union

from .core import (
    BudgetExceeded,
    FiniteSemigroup,
    FunctionSemigroup,
    Mismatch,
    NotHomomorphism,
    ShapeError,
    _grow_closure,
    _memoized,
    cached_property,
)

DEFAULT_BUDGET = 10_000_000

Target = Union[FiniteSemigroup, FunctionSemigroup]


@dataclass(frozen=True)
class Homomorphism:
    """A verified total map between semigroups.

    ``mapping[i]`` is the image of source element i: an index for table
    targets, a token for function-backed targets.
    """

    source: FiniteSemigroup
    target: Target
    mapping: tuple

    @cached_property
    def image(self) -> frozenset:
        return frozenset(self.mapping)

    @property
    def is_trivial(self) -> bool:
        return len(self.image) == 1

    @property
    def preserves_zero(self) -> Optional[bool]:
        if self.source.zero is None or self.target.zero is None:
            return None
        return self.mapping[self.source.zero] == self.target.zero

    @property
    def is_injective(self) -> bool:
        return len(self.image) == self.source.order

    @property
    def is_surjective(self) -> bool:
        if not isinstance(self.target, FiniteSemigroup):
            return False
        return len(self.image) == self.target.order

    def __repr__(self) -> str:
        return f"Homomorphism({list(self.mapping)!r})"


def check_homomorphism(mapping, source: FiniteSemigroup, target: Target) -> Homomorphism:
    """Verify the product law along the right Cayley edges and wrap the map.

    Checks f(a)·f(g) = f(a·g) for every source element a and every g in
    ``source.generators``, n·|G| products instead of n².  Source and target
    are associative, so this makes f a homomorphism by induction on word
    length, as in the search kernel.  NotHomomorphism carries the first
    failing edge (a, g), in row order and then generator order, which is a
    pair that breaks the product law.
    """
    mapping = tuple(mapping)
    if len(mapping) != source.order:
        raise ShapeError(
            f"map covers {len(mapping)} elements, source has {source.order}"
        )
    finite = isinstance(target, FiniteSemigroup)
    if finite:
        for v in mapping:
            if not isinstance(v, int) or not (0 <= v < target.order):
                raise ShapeError(f"image {v!r} outside the target")
    edges = [(g, mapping[g]) for g in source.generators]
    for a, row in enumerate(source.table):
        fa = mapping[a]
        times = target.table[fa] if finite else None
        for g, fg in edges:
            got = times[fg] if finite else target.multiply(fa, fg)
            if got != mapping[row[g]]:
                la, lg = source.labels[a], source.labels[g]
                raise NotHomomorphism(a, g, f"f({la})*f({lg}) != f({la}*{lg})")
    return Homomorphism(source=source, target=target, mapping=mapping)


def compose_homs(first: Homomorphism, then: Homomorphism) -> Homomorphism:
    """Apply ``first``, then ``then``."""
    if first.target != then.source:
        raise Mismatch("middle semigroups differ")
    mapping = tuple(then.mapping[v] for v in first.mapping)
    return Homomorphism(source=first.source, target=then.target, mapping=mapping)


def generating_set(S: FiniteSemigroup) -> list[int]:
    """Greedy generators: repeatedly add the element whose closure grows most.

    Ties go to the smallest index.  Within a round an element inside the
    closure of an earlier candidate is skipped, since its own closure lies
    in that one and cannot be strictly larger, and a closure of every
    element ends the round.  In the first round nothing is chosen yet, so
    each candidate e's closure is <e>, the powers e, e^2, ... up to the
    first repeat: they are walked directly, with no ``_grow_closure``
    call, and the longest walk, ties to the smallest index, is kept.  The
    skip keeps that choice too: a skipped element is a power of an earlier
    candidate d, and <d> contains its closure.  Later rounds grow
    Froidure–Pin closures of the chosen set.
    """
    n = S.order
    t = S.table
    walked = [-1] * n  # walked[p]: the last candidate whose powers reached p
    closed: list[int] = []
    for e in range(n):
        if walked[e] >= 0:
            continue
        walked[e] = e
        powers = [e]
        p = t[e][e]
        while walked[p] != e:
            walked[p] = e
            powers.append(p)
            p = t[p][e]
        if len(powers) > len(closed):
            closed = powers
            if len(powers) == n:
                break
    gens = closed[:1]
    while len(closed) < n:
        covered = set(closed)
        best, best_closure = None, []
        for e in range(n):
            if e in covered:
                continue
            clo = _grow_closure(t, list(closed), gens, e)
            covered.update(clo)
            if len(clo) > len(best_closure):
                best, best_closure = e, clo
                if len(clo) == n:
                    break
        gens.append(best)
        closed = best_closure
    return gens


def _product_count(t, x: int) -> int:
    """|x·S| + |S·x| in the table t: the number of distinct entries in x's
    row plus the number in its column."""
    return len(set(t[x])) + len({row[x] for row in t})


def _branch_order(S: FiniteSemigroup) -> list[int]:
    """``generating_set(S)`` by descending ``_product_count``, most
    constraining first as in symmetry-breaking semigroup searches (A.
    Distler, PhD thesis, St Andrews, 2010); the sort is stable, so ties
    keep the greedy order.  On a Brandt extension this puts the units
    (a, 1_S, b) first: their images decide most products, so each later
    generator meets many decided rules and the filters leave it few
    candidates."""
    t = S.table
    return sorted(generating_set(S), key=lambda x: _product_count(t, x), reverse=True)


def _compile(A: FiniteSemigroup, branch_order) -> tuple:
    """One level ``(x, filters, prog)`` per generator x that the earlier
    ones do not generate, all of it tuples, so that searches may share it.

    D_k, the elements decided after the k-th level, is the subsemigroup the
    first k generators g_1, ..., g_k generate.  Words over them are ordered
    by the number of occurrences of g_k, then of g_(k-1), down to g_1, and
    ties go lexicographically by generator position.  Counts add under
    concatenation and tied words have equal length, so this is a reduction
    order: a well-order that concatenation on either side keeps.  An
    element's normal word is the least word that spells it.  A factor of a
    normal word is normal, or a smaller factor would give a smaller word
    for the same element; so the least words that are not normal are the
    w·g with w normal, w·g not, and w·g without its first letter normal.
    Rewriting each to its normal word is a complete rewriting system: every
    word rewrites to the normal word of its element.  So a map h on the
    generators whose extension along the normal words respects each of
    these rules, h(w)·h(g) = h(w·g), is a homomorphism on D_k (Froidure and
    Pin 1997), and every homomorphism respects them.

    Every word without g_k comes before every word with it, so the normal
    words of D_(k-1) do not change at level k, and its rules without g_k are
    those of D_(k-1), which the earlier levels check.  Level k holds the
    others.  Its new elements are settled in word order by a Dijkstra-style
    pass that starts from x and each c·x, c in D_(k-1), and appends one
    generator at a time: each new element p's normal word is its parent
    u's plus one letter g, and the edge (u, g) defines h(p) = h(u)·h(g).
    Every other right Cayley edge (u, g) with u new or g = x is a rule if u
    is a generator or if (s, g) defines s·g, where s is the element that
    u's normal word without its first letter spells; the other edges are
    implied by the rules and dropped.

    A rule (a, g, p), p = a·g, is a filter when x is exactly one of a and g
    and the other two of a, g, p are in D_(k-1): it narrows x's candidates.
    ``prog`` holds the defines in word order and each other rule as a check
    right after the define of the last of a, g and p, after the checks
    already there, or at the front when all three are decided as the level
    starts (x is), so the program fails as early as it can.  Given that h
    is a homomorphism on D_(k-1), a candidate passes the level iff h is a
    homomorphism on D_k, which is what checking every new right Cayley edge
    decides; so the search reaches the same maps in the same order, in
    fewer steps.  Ops are ``(a, g, p, defines, ran)``, ``ran`` the op's
    position counted from 1.
    """
    ta = A.table
    n = A.order
    known = [False] * n
    done: list = []  # the decided elements, in definition order
    at = [0] * n  # at[e]: the position of e in ``done``
    # each decided element's normal word: its key (weight, code), and the
    # elements that its prefix (None at a generator), its last letter and
    # its word without the first letter spell.  The weight sums (n + 2)**j
    # over the letters g_j; a heap word is a normal word of at most n
    # letters plus one, so weights compare as the counts do.  The code reads
    # the letters as digits base n, so words of one weight, which have one
    # length, compare lexicographically.
    weight, code = [0] * n, [0] * n
    parent, last, suffix = [None] * n, [None] * n, [None] * n
    gens: list = []
    unit: list = []  # unit[j]: the weight of the j-th generator's letter
    levels = []
    for x in branch_order:
        if known[x]:
            continue
        j = len(gens)
        gens.append(x)
        unit.append((n + 2) ** j)
        start = len(done)
        heap = [(unit[j], j, x, None, None)]
        for c in done:
            p = ta[c][x]
            if not known[p]:
                heap.append((weight[c] + unit[j], code[c] * n + j, p, c, x))
        heapify(heap)
        while heap:
            w, wc, p, u, g = heappop(heap)
            if known[p]:
                continue
            known[p] = True
            at[p] = len(done)
            done.append(p)
            weight[p], code[p], parent[p], last[p] = w, wc, u, g
            if u is not None:
                suffix[p] = g if parent[u] is None else ta[suffix[u]][g]
            row = ta[p]
            wc *= n
            for i, h in enumerate(gens):
                q = row[h]
                if not known[q]:
                    heappush(heap, (w + unit[i], wc + i, q, p, h))
        new = done[start:]
        # checks[i]: the checks that the define of new[i] completes; at x,
        # the checks on elements decided as the level starts
        filters, checks = [], [[] for _ in new]
        edges = zip(done[:start], itertools.repeat(x))
        for a, g in itertools.chain(edges, itertools.product(new, gens)):
            p = ta[a][g]
            if parent[p] == a and last[p] == g:
                continue  # p's define
            s = suffix[a]
            if s is not None:
                q = ta[s][g]
                if parent[q] != s or last[q] != g:
                    continue  # not a rule: implied by the rules
            la, lp = at[a] - start, at[p] - start
            if lp < 0 and la <= 0 and (a == x) != (g == x):
                filters.append((a, g, p))
            else:
                checks[max(la, lp, 0)].append((a, g, p))
        prog = []
        for p, completed in zip(new, checks):
            if p != x:
                prog.append((parent[p], last[p], p, True, len(prog) + 1))
            for a, g, q in completed:
                prog.append((a, g, q, False, len(prog) + 1))
        levels.append((x, tuple(filters), tuple(prog)))
    return tuple(levels)


def _program(S: FiniteSemigroup) -> tuple:
    """The program ``enumerate_homs`` runs from S: ``_compile`` over
    ``_branch_order(S)``."""
    return _compile(S, _branch_order(S))


def _search_maps(
    A: FiniteSemigroup,
    B: FiniteSemigroup,
    levels,
    domains,
    injective: bool = False,
    budget: int = DEFAULT_BUDGET,
):
    """Yield every product-respecting total map A -> B the search reaches.

    ``levels`` is the program ``_compile(A, branch_order)``, for a branch
    order whose elements generate A; the kernel only reads it, so one
    program serves every search from A.  The search branches, level by
    level, on the generators not already generated by earlier ones.  At
    the level of x it first narrows ``domains[x]`` by the level's filters,
    keeping the order: for (x, g) it keeps the y with y·h(g) = h(x·g), for
    (c, x) the y with h(c)·y = h(c·x), and it prunes the branch once no y
    is left.
    Then it sets h(x) = y for each survivor in turn and runs the level's
    program straight through, stopping at the first failed check (or, with
    ``injective``, the first repeated image).  A level writes only its own
    elements' images, so no image is undone on backtrack; with
    ``injective`` the images it took are released.  At a leaf h respects
    the rules of every level, so it is a homomorphism (see ``_compile``).
    The maps come out as tuples, in the order the branches are tried.
    Counts one step per filter and per program op run, and raises
    BudgetExceeded past ``budget`` steps, or once its nesting, one level
    per generator it branches on, passes the interpreter's recursion
    limit.
    """
    tb = B.table
    fwd: list = [None] * A.order
    used = [False] * B.order  # read only when injective: one preimage each
    steps = 0

    def search(k):
        nonlocal steps
        if k == len(levels):
            yield tuple(fwd)
            return
        x, filters, prog = levels[k]
        ys = domains[x]
        for a, g, p in filters:
            steps += 1
            want = fwd[p]
            if a == x:
                hg = fwd[g]
                ys = [y for y in ys if tb[y][hg] == want]
            else:
                row = tb[fwd[a]]
                ys = [y for y in ys if row[y] == want]
            if not ys:
                break
        if steps > budget:
            raise BudgetExceeded(f"search exceeded {budget} steps")
        for y in ys:
            if injective:
                if used[y]:
                    continue
                used[y] = True
                taken = [y]
            fwd[x] = y
            ok = False
            for a, g, p, defines, ran in prog:
                q = tb[fwd[a]][fwd[g]]
                if defines:
                    if injective:
                        if used[q]:
                            break
                        used[q] = True
                        taken.append(q)
                    fwd[p] = q
                elif fwd[p] != q:
                    break
            else:
                ok = True
            steps += ran
            if steps > budget:
                raise BudgetExceeded(f"search exceeded {budget} steps")
            if ok:
                yield from search(k + 1)
            if injective:
                for q in taken:
                    used[q] = False

    try:
        yield from search(0)
    except RecursionError:
        raise BudgetExceeded(
            f"search depth {len(levels)} exceeds the interpreter's recursion limit"
        ) from None


def enumerate_homs(
    S: FiniteSemigroup,
    T: FiniteSemigroup,
    nontrivial_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> list[Homomorphism]:
    """Every homomorphism S -> T, by backtracking over generator images.

    The generators are ``generating_set(S)``, branched on in the order of
    ``_branch_order``: those with the most distinct products first, which
    on an extension are the units.  A generator is offered only the images
    that agree with its decided rules; each image it takes then defines the
    images of the elements it newly generates, h(a·g) = h(a)·h(g) along the
    Cayley edge that ends each one's normal word, and a later rule that
    disagrees prunes the branch (see ``_compile``).  The earlier a
    generator's images decide many products, the more rules each later
    generator meets decided, so the fewer candidates survive its filters.
    Output is sorted by map table, so the order changes the work and not
    the result.  The compiled program is kept under ("hom_program",) in
    S's memo if S has one, and reused by every later search from S or an
    equal carrier sharing that memo: extension carriers built with the
    default labels share one with their equal carriers, and a base has one
    once it is extended, so a sweep over one base and rank grid compiles
    once per source value.  A plain ``build_semigroup`` table is compiled
    per call and given no memo.  Raises BudgetExceeded past
    ``budget`` steps, a step being one product defined or checked, or one
    candidate filter by a decided rule.
    """
    if "_memo" in vars(S):
        levels = _memoized(S, ("hom_program",), _program, S)
    else:
        levels = _program(S)
    domains = [range(T.order)] * S.order
    maps = sorted(_search_maps(S, T, levels, domains, budget=budget))
    if nontrivial_only:
        maps = [f for f in maps if len(set(f)) > 1]
    return [Homomorphism(source=S, target=T, mapping=f) for f in maps]
