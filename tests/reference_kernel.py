"""Kernels as they were before their Cayley-edge rewrites, kept as oracles.

``reference_search_maps`` is the oracle for ``homs._search_maps``: it closes
each assignment under the products with every assigned element, on both
sides.  ``reference_congruence_closure`` is the oracle for
``search.congruence_closure``: it translates each merged pair by every
element, on both sides.
"""

from brandt.core import BudgetExceeded, FiniteSemigroup
from brandt.homs import DEFAULT_BUDGET
from brandt.search import _normalize_partition


def reference_search_maps(
    A: FiniteSemigroup,
    B: FiniteSemigroup,
    branch_order,
    domains,
    injective: bool = False,
    budget: int = DEFAULT_BUDGET,
):
    """Yield every product-respecting total map A -> B the search reaches.

    Branches on the elements of ``branch_order`` not yet forced, trying
    ``domains[x]`` in order; each assignment is closed under products with
    every assigned element, so a contradiction (or, with ``injective``, a
    repeated image) prunes the branch at once.  The maps come out as tuples,
    in the order the branches are tried.  Counts one step per propagated pair
    and raises BudgetExceeded past ``budget`` steps.
    """
    ta, tb = A.table, B.table
    order = list(branch_order)
    fwd: list = [None] * A.order
    used = [False] * B.order  # read only when injective: one preimage each
    assigned: list = []
    steps = 0

    def undo(mark):
        while len(assigned) > mark:
            a = assigned.pop()
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
            for c in assigned:
                d = fwd[c]
                stack.append((ra[c], rb[d]))
                if c != a:
                    stack.append((ta[c][a], tb[d][b]))
        else:
            return True
        undo(mark)
        return False

    def search(i):
        while i < len(order) and fwd[order[i]] is not None:
            i += 1
        if i == len(order):
            yield tuple(fwd)
            return
        x = order[i]
        for y in domains[x]:
            mark = len(assigned)
            if assign(x, y):
                yield from search(i + 1)
                undo(mark)

    return search(0)


def reference_congruence_closure(S: FiniteSemigroup, pairs) -> tuple[int, ...]:
    """Smallest congruence containing the given pairs, as a partition tuple.

    Pair-closure: whenever a pair merges, its left and right translates are
    queued, which suffices because merged chains translate elementwise.
    """
    n = S.order
    t = S.table
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for x in range(n):
            xa, xb = t[x][a], t[x][b]
            if find(xa) != find(xb):
                work.append((xa, xb))
            ax, bx = t[a][x], t[b][x]
            if find(ax) != find(bx):
                work.append((ax, bx))
    return _normalize_partition(find, n)
