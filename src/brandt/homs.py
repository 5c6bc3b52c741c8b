"""Homomorphism checking, and the one backtracking kernel for map search.

Both check only the right Cayley edges: a map with h(a·g) = h(a)·h(g) for
each element a and each generator g of the source is a homomorphism, by
induction on word length (Froidure and Pin, "Algorithms for computing
finite semigroups", 1997).  ``check_homomorphism`` runs over the
generators ``source.generators``, so it costs n·|G| products, not n².

``_search_maps`` enumerates product-respecting maps between table-backed
semigroups with a step budget.  It branches on a set of generators of the
source, which the caller passes and which must generate it, and checks
these edges, so a full assignment is a homomorphism.  The branch order is
fixed, so before searching ``_compile`` decides, for each generator,
which elements its image decides and which edges it must check, as a
straight-line program.  Before it branches on a generator the search
drops the candidates that clash on an edge whose ends are already
decided (forward checking: Haralick and Elliott, "Increasing tree search
efficiency for constraint satisfaction problems", 1980).  For each
candidate the program then defines images breadth first and runs each
check as soon as the three images it reads are decided, so a failing
candidate meets the check that rejects it before any define it does not
need (the fail-first principle of the same paper).  A step of the
budget is one program op run or one such edge filter.  ``enumerate_homs``
runs it over ``generating_set(S)`` reordered most constraining first, by
descending |x·S| + |S·x| (as in symmetry-breaking semigroup searches: A.
Distler, PhD thesis, St Andrews, 2010).  On a Brandt extension that puts
the units (a, 1_S, b) first; their images decide most products, so each
later generator meets many decided edges and the filters leave it few
candidates.  ``search.iso_search`` runs the kernel injectively over
profile-compatible candidates with every element a generator, in index
order, so that its first witness is the lexicographically smallest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .core import (
    BudgetExceeded,
    FiniteSemigroup,
    FunctionSemigroup,
    Mismatch,
    NotHomomorphism,
    ShapeError,
    _grow_closure,
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

    def __call__(self, i: int):
        return self.mapping[i]

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
    element ends the round.
    """
    n = S.order
    t = S.table
    gens: list[int] = []
    closed: list[int] = []
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


def _branch_order(S: FiniteSemigroup) -> list[int]:
    """``generating_set(S)`` by descending |x·S| + |S·x|, the number of
    distinct entries in x's row plus the number in its column; the sort is
    stable, so ties keep the greedy order."""
    t = S.table
    return sorted(
        generating_set(S),
        key=lambda x: len(set(t[x])) + len({row[x] for row in t}),
        reverse=True,
    )


def _compile(A: FiniteSemigroup, branch_order) -> list:
    """One level ``(x, filters, prog)`` per generator x that the earlier
    ones do not generate.

    D_k, the elements decided after the k-th level, is the subsemigroup the
    first k generators generate.  ``filters`` holds the edges (x, g) and
    (c, x), g an earlier generator and c in D_(k-1), whose product is in
    D_(k-1): each narrows x's candidates.  ``prog`` lists the other right
    Cayley edges (a, g) inside D_k, g a generator of D_k, that lie outside
    D_(k-1), as ops ``(a, g, p, defines, ran)``: the first edge to reach p,
    breadth first from x, defines h(p) = h(a)·h(g), and every other one
    checks it.  The defines keep that breadth-first order.  Each check
    comes right after the define of the last of a, g and p, after the
    checks already there, or at the front when all three are decided as
    the level starts (x is), so the program fails as early as it can.
    ``ran`` is the op's position counted from 1.
    """
    ta = A.table
    known = [False] * A.order
    done: list = []  # the decided elements, in definition order
    at = [0] * A.order  # at[e]: the position of e in ``done``
    gens: list = []
    levels = []
    for x in branch_order:
        if known[x]:
            continue
        rx = ta[x]
        filters = [(x, g, rx[g]) for g in gens if known[rx[g]]]
        filters += [(c, x, ta[c][x]) for c in done if known[ta[c][x]]]
        edges = [(c, x) for c in done if not known[ta[c][x]]]
        edges += [(x, g) for g in gens if not known[rx[g]]]
        edges.append((x, x))
        gens.append(x)
        known[x] = True
        start = at[x] = len(done)
        done.append(x)
        # front: the checks on elements decided as the level starts; then
        # one group per define, the define and the checks it completes
        front, groups = [], []
        for a, g in edges:  # grows as new elements are defined
            p = ta[a][g]
            if known[p]:  # g is decided as the level starts
                last = (at[a] if at[a] > at[p] else at[p]) - start
                (groups[last - 1] if last > 0 else front).append((a, g, p, False))
            else:
                known[p] = True
                at[p] = len(done)
                done.append(p)
                edges += [(p, h) for h in gens]
                groups.append([(a, g, p, True)])
        prog = [op + (ran,) for ran, op in enumerate(itertools.chain(front, *groups), 1)]
        levels.append((x, filters, prog))
    return levels


def _search_maps(
    A: FiniteSemigroup,
    B: FiniteSemigroup,
    branch_order,
    domains,
    injective: bool = False,
    budget: int = DEFAULT_BUDGET,
):
    """Yield every product-respecting total map A -> B the search reaches.

    The elements of ``branch_order`` are the generators, and they must
    generate A.  The search branches, level by level of ``_compile``, on
    the generators not already generated by earlier ones.  At the level of
    x it first narrows ``domains[x]`` by the level's filters, keeping the
    order: for (x, g) it keeps the y with y·h(g) = h(x·g), for (c, x) the
    y with h(c)·y = h(c·x), and it prunes the branch once no y is left.
    Then it sets h(x) = y for each survivor in turn and runs the level's
    program straight through, stopping at the first failed check (or, with
    ``injective``, the first repeated image).  A level writes only its own
    elements' images, so no image is undone on backtrack; with
    ``injective`` the images it took are released.  At a leaf
    h(a·g) = h(a)·h(g) holds for every a and generator g, so h is a
    homomorphism by induction on word length.  The maps come out as
    tuples, in the order the branches are tried.  Counts one step per
    filter and per program op run, and raises BudgetExceeded past
    ``budget`` steps, or once its nesting, one level per generator it
    branches on, passes the interpreter's recursion limit.
    """
    tb = B.table
    levels = _compile(A, branch_order)
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
    that agree with its decided edges; each image it takes then defines the
    images of the elements it newly generates, h(a·g) = h(a)·h(g) along the
    first Cayley edge to reach each, and a later edge that disagrees prunes
    the branch.  The earlier a generator's images decide many products,
    the more edges each later generator meets decided, so the fewer
    candidates survive its filters.  Output is sorted by map table, so the
    order changes the work and not the result.
    Raises BudgetExceeded past ``budget`` steps, a step being one such
    edge defined or checked, or one candidate filter by a decided edge.
    """
    domains = [range(T.order)] * S.order
    maps = sorted(_search_maps(S, T, _branch_order(S), domains, budget=budget))
    if nontrivial_only:
        maps = [f for f in maps if len(set(f)) > 1]
    return [Homomorphism(source=S, target=T, mapping=f) for f in maps]
