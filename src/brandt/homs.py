"""Homomorphism checking, and the one backtracking kernel for map search.

``_search_maps`` enumerates product-respecting maps between table-backed
semigroups with a step budget.  It branches on a set of generators of the
source, which the caller passes and which must generate it, and propagates
along the right Cayley edges only: it checks h(x·g) = h(x)·h(g) for each
assigned x and assigned generator g (Froidure and Pin, "Algorithms for
computing finite semigroups", 1997), which at a full assignment makes h a
homomorphism by induction on word length.  Before it branches on a
generator it drops the candidates that clash on an edge whose ends are
already decided (forward checking: Haralick and Elliott, "Increasing tree
search efficiency for constraint satisfaction problems", 1980).  A step
of the budget is one forced pair popped or one such edge filter.
``enumerate_homs`` runs it over ``generating_set(S)``, and
``search.iso_search`` runs it injectively over profile-compatible
candidates with every element a generator.
"""

from __future__ import annotations

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
    """Verify the product law over every source pair and wrap the map."""
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
    n = source.order
    st = source.table
    for i in range(n):
        for j in range(n):
            got = (
                target.table[mapping[i]][mapping[j]]
                if finite
                else target.multiply(mapping[i], mapping[j])
            )
            want = mapping[st[i][j]]
            if got != want:
                raise NotHomomorphism(
                    i,
                    j,
                    f"f({source.labels[i]})*f({source.labels[j]}) != f({source.labels[i]}*{source.labels[j]})",
                )
    return Homomorphism(source=source, target=target, mapping=mapping)


def compose_homs(first: Homomorphism, then: Homomorphism) -> Homomorphism:
    """Apply ``first``, then ``then``."""
    if first.target != then.source:
        raise Mismatch("middle semigroups differ")
    mapping = tuple(then.mapping[v] for v in first.mapping)
    return Homomorphism(source=first.source, target=then.target, mapping=mapping)


def generating_set(S: FiniteSemigroup) -> list[int]:
    """Greedy generators: repeatedly add the element whose closure grows most."""
    n = S.order
    t = S.table
    gens: list[int] = []
    closed: list[int] = []
    while len(closed) < n:
        inside = set(closed)
        best, best_closure = None, None
        for e in range(n):
            if e in inside:
                continue
            clo = _grow_closure(t, list(closed), e)
            if best_closure is None or len(clo) > len(best_closure):
                best, best_closure = e, clo
        gens.append(best)
        closed = best_closure
    return gens


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
    generate A.  The search branches on the generators not yet forced.  For
    such a generator x it first narrows ``domains[x]``, keeping the order:
    for each assigned generator g with h(x·g) decided it keeps the y with
    y·h(g) = h(x·g), for each assigned c with h(c·x) decided the y with
    h(c)·y = h(c·x), and it prunes the branch once no y is left.  It tries
    the survivors in order and propagates each assignment along the
    right Cayley edges (x, g), g a generator: when x gets an image, every
    edge (x, g) to an assigned generator g is checked, and when x is itself
    a generator, so is every edge (c, x) from an assigned c.  An edge whose
    product already has an image is compared at once; otherwise the forced
    pair x·g -> h(x)·h(g) is pushed.  A contradiction (or, with
    ``injective``, a repeated image) prunes the branch.  At a leaf every
    element is assigned and h(x·g) = h(x)·h(g) holds for every x and
    generator g, so h is a homomorphism by induction on word length.  The
    maps come out as tuples, in the order the branches are tried.  Counts
    one step per popped pair and one per edge filter, and raises
    BudgetExceeded past ``budget`` steps.
    """
    ta, tb = A.table, B.table
    order = list(branch_order)
    is_gen = [False] * A.order
    for g in order:
        is_gen[g] = True
    fwd: list = [None] * A.order
    used = [False] * B.order  # read only when injective: one preimage each
    assigned: list = []
    gens: list = []  # the assigned generators, in assignment order
    steps = 0

    def undo(mark):
        while len(assigned) > mark:
            a = assigned.pop()
            if is_gen[a]:
                gens.pop()
            used[fwd[a]] = False
            fwd[a] = None

    def assign(x, y):
        nonlocal steps
        mark = len(assigned)
        stack = [(x, y)]
        while stack:
            steps += 1
            if steps > budget:
                raise BudgetExceeded(f"search exceeded {budget} steps")
            a, b = stack.pop()
            cur = fwd[a]
            if cur is not None:
                if cur != b:
                    break
                continue
            if injective and used[b]:
                break
            fwd[a] = b
            used[b] = True
            assigned.append(a)
            ra, rb = ta[a], tb[b]
            clash = False
            for g in gens:  # the edges (a, g)
                p, q = ra[g], rb[fwd[g]]
                cur = fwd[p]
                if cur is None:
                    stack.append((p, q))
                elif cur != q:
                    clash = True
                    break
            if is_gen[a]:
                gens.append(a)
                if not clash:
                    for c in assigned:  # the edges (c, a)
                        p, q = ta[c][a], tb[fwd[c]][b]
                        cur = fwd[p]
                        if cur is None:
                            stack.append((p, q))
                        elif cur != q:
                            clash = True
                            break
            if clash:
                break
        else:
            return True
        undo(mark)
        return False

    def candidates(x):
        # forward checking: drop the y that clash on a decided edge (x, g)
        # or (c, x), one order-preserving filter per edge, one step each
        nonlocal steps
        ys = domains[x]
        rx = ta[x]
        for g in gens:
            p = fwd[rx[g]]
            if p is not None:
                steps += 1
                if steps > budget:
                    raise BudgetExceeded(f"search exceeded {budget} steps")
                hg = fwd[g]
                ys = [y for y in ys if tb[y][hg] == p]
                if not ys:
                    return ys
        for c in assigned:
            p = fwd[ta[c][x]]
            if p is not None:
                steps += 1
                if steps > budget:
                    raise BudgetExceeded(f"search exceeded {budget} steps")
                rc = tb[fwd[c]]
                ys = [y for y in ys if rc[y] == p]
                if not ys:
                    return ys
        return ys

    def search(i):
        while i < len(order) and fwd[order[i]] is not None:
            i += 1
        if i == len(order):
            yield tuple(fwd)
            return
        x = order[i]
        for y in candidates(x):
            mark = len(assigned)
            if assign(x, y):
                yield from search(i + 1)
                undo(mark)

    return search(0)


def enumerate_homs(
    S: FiniteSemigroup,
    T: FiniteSemigroup,
    nontrivial_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> list[Homomorphism]:
    """Every homomorphism S -> T, by backtracking over generator images.

    The generators are ``generating_set(S)``.  As the search goes, each
    assigned element x forces the image of x·g for every assigned generator
    g, and an edge whose image is already set and disagrees prunes the
    branch; a generator is offered only the images that agree with its
    decided edges.  Output is sorted by map table.  Raises BudgetExceeded
    past ``budget`` steps, a step being one forced pair popped or one
    candidate filter by a decided edge.
    """
    domains = [range(T.order)] * S.order
    maps = sorted(_search_maps(S, T, generating_set(S), domains, budget=budget))
    if nontrivial_only:
        maps = [f for f in maps if len(set(f)) > 1]
    return [Homomorphism(source=S, target=T, mapping=f) for f in maps]
