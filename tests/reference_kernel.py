"""Searches as they were before their rewrites, kept as oracles.

``reference_search_maps`` is the oracle for ``homs._search_maps``: it closes
each assignment under the products with every assigned element, on both
sides.  ``reference_compile`` is the oracle for the edges of
``homs._compile``: its programs take every new right Cayley edge of each
level, breadth first, where ``homs._compile`` takes only the rules of a
presentation.
``reference_congruence_closure`` is the oracle for
``search.congruence_closure``: it translates each merged pair by every
element, on both sides.  ``reference_congruence_lattice`` and
``reference_is_congruence_free`` are the oracles for their namesakes in
``search``: they compute a fresh closure per pair and join two
congruences by closing their pairs.  ``reference_find_matrix_unit_copy`` is
the oracle for ``search.find_matrix_unit_copy``: it filters every
combination of diagonal idempotents and checks the matrix-unit product law
by hand.  ``reference_grow_closure`` is the oracle for
``core._grow_closure``: it multiplies each new element with every earlier
member, on both sides.  ``reference_magma_generators`` and
``reference_generating_set`` are the oracles for ``core._magma_generators``
and ``homs.generating_set``; both grow their closures through it, and the
second grows one for every element outside the chosen set in every round.
``reference_check_homomorphism`` is the oracle for
``homs.check_homomorphism``: it tests the product law on all n^2 pairs
instead of the n*|G| Cayley edges.  ``reference_induced_hom`` is the
oracle for ``category.induced_hom``: it maps one carrier index at a time,
through coordinates listed by the definition rather than the extension's
tables.  ``reference_extension_table`` and ``reference_subsemigroup`` are
the oracles for ``construct._extension_table`` and ``core.subsemigroup``:
the first fills the extension table one nonzero cell at a time, the second
checks every pair for closure before it reads the table cell by cell.
``reference_image_witness`` is the oracle for the witness of
``category.image_decomposition``: it reads each image through every
representative and demands that they agree.  ``reference_recover_triple``
is the oracle for ``category.recover_triple``: it rejects each image that
no homomorphism can give by a reason of its own, where recover_triple
reads the triple through the facts every homomorphism obeys and leaves such
maps to the reconstruction.  ``reference_is_inverse``,
``reference_is_clifford`` and ``reference_is_primitive_inverse`` are the
oracles for the flags of ``classify``: they decide each by its definition,
through the inverses of every element.  ``idempotent_order`` computes the
natural partial order on the idempotents, and the primitive ones, from the
definition; the library no longer needs it, since ``classify`` tests
primitivity directly.  ``reference_identity`` is the
oracle for the identity that ``core._trusted_semigroup`` detects: it
checks every element on both sides.  ``reference_element_profiles`` is
the oracle for ``search._element_profiles``: it collects each row and
column one table cell at a time.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

from brandt.category import (
    NotClassifiable,
    _check_ranks,
    _require_map,
    induced_hom,
    make_triple,
)
from brandt.core import (
    AlgebraError,
    BudgetExceeded,
    FiniteSemigroup,
    IllFormedTriple,
    NotHomomorphism,
    NoZero,
    ShapeError,
    build_semigroup,
    maximal_subgroup,
)
from brandt.homs import DEFAULT_BUDGET, Homomorphism, check_homomorphism
from brandt.search import (
    DEFAULT_CONGRUENCE_BOUND,
    _normalize_partition,
    congruence_closure,
    identity_partition,
    universal_partition,
)


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


def reference_compile(A: FiniteSemigroup, branch_order) -> list:
    """The levels of ``homs._compile`` with every new right Cayley edge as a
    filter or an op: the filters are all the edges (x, g) and (c, x) whose
    product is decided before x, and the ops ``(a, g, p, defines, ran)``
    run the other edges in the order they are met, breadth first, the first
    edge to reach each element defining it."""
    ta = A.table
    known = [False] * A.order
    done: list = []
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
        done.append(x)
        prog = []
        for a, g in edges:
            p = ta[a][g]
            defines = not known[p]
            if defines:
                known[p] = True
                done.append(p)
                edges += [(p, h) for h in gens]
            prog.append((a, g, p, defines, len(prog) + 1))
        levels.append((x, filters, prog))
    return levels


def reference_check_homomorphism(mapping, source: FiniteSemigroup, target) -> Homomorphism:
    """Verify the product law over every source pair and wrap the map.

    NotHomomorphism carries the first failing pair (i, j) in index order.
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
    n = source.order
    st = source.table
    for i in range(n):
        for j in range(n):
            got = (
                target.table[mapping[i]][mapping[j]]
                if finite
                else target.multiply(mapping[i], mapping[j])
            )
            if got != mapping[st[i][j]]:
                raise NotHomomorphism(i, j)
    return Homomorphism(source=source, target=target, mapping=mapping)


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
    return _normalize_partition(parent)


def reference_congruence_lattice(S: FiniteSemigroup) -> list[tuple[int, ...]]:
    """All congruences of S, as the join closure of the principal ones.

    Refuses orders above the congruence bound rather than degrade silently.
    """
    n = S.order
    if n > DEFAULT_CONGRUENCE_BOUND:
        raise BudgetExceeded(f"order {n} exceeds the congruence bound {DEFAULT_CONGRUENCE_BOUND}")
    found = {identity_partition(n)}
    for a in range(n):
        for b in range(a + 1, n):
            found.add(congruence_closure(S, [(a, b)]))

    def join(p, q):
        pairs = []
        for part in (p, q):
            seen = {}
            for i, c in enumerate(part):
                if c in seen:
                    pairs.append((seen[c], i))
                else:
                    seen[c] = i
        return congruence_closure(S, pairs)

    frontier = list(found)
    while frontier:
        fresh = []
        for p in frontier:
            for q in list(found):
                j = join(p, q)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(found)


def reference_is_congruence_free(S: FiniteSemigroup) -> bool:
    """Exactly two congruences exist: the identity and the universal one.

    Equivalent to every principal congruence of a distinct pair being
    universal, which avoids building the whole lattice.
    """
    n = S.order
    if n > DEFAULT_CONGRUENCE_BOUND:
        raise BudgetExceeded(f"order {n} exceeds the congruence bound {DEFAULT_CONGRUENCE_BOUND}")
    if n < 2:
        return False
    universal = universal_partition(n)
    for a in range(n):
        for b in range(a + 1, n):
            if congruence_closure(S, [(a, b)]) != universal:
                return False
    return True


def reference_grow_closure(table, members: list, x: int) -> list:
    """Close ``members`` together with ``x`` under the table product, in place.

    ``members`` must already be product-closed and must not contain ``x``.
    Each element that joins is multiplied once, on both sides, with every
    member before it and with itself, so growing a closure to m elements
    costs O(m^2) products in all.  Returns ``members``, in order of joining.
    """
    inside = set(members)
    inside.add(x)
    i = len(members)
    members.append(x)
    while i < len(members):
        c = members[i]
        rc = table[c]
        i += 1
        for m in members[:i]:
            for p in (rc[m], table[m][c]):
                if p not in inside:
                    inside.add(p)
                    members.append(p)
    return members


def reference_magma_generators(table) -> tuple[int, ...]:
    """The elements, in index order, not in the closure of those before
    them that were kept."""
    gens: list[int] = []
    members: list[int] = []
    for x in range(len(table)):
        if x not in members:
            gens.append(x)
            reference_grow_closure(table, members, x)
    return tuple(gens)


def reference_generating_set(S: FiniteSemigroup) -> list[int]:
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
            clo = reference_grow_closure(t, list(closed), e)
            if best_closure is None or len(clo) > len(best_closure):
                best, best_closure = e, clo
        gens.append(best)
        closed = best_closure
    return gens


@dataclass(frozen=True)
class MatrixUnitCopy:
    """An embedded copy of the matrix-unit semigroup of a given rank.

    ``unit_images[i][j]`` is the ambient element playing the (i+1,j+1) unit;
    ``zero_image`` plays the copy's zero and need not be the ambient zero.
    """

    lam: int
    zero_image: int
    unit_images: tuple[tuple[int, ...], ...]


def _verify_copy(T: FiniteSemigroup, lam, w, units) -> bool:
    t = T.table
    elems = {w}
    for row in units:
        elems.update(row)
    if len(elems) != lam * lam + 1:
        return False
    if t[w][w] != w:
        return False
    for i in range(lam):
        for j in range(lam):
            x = units[i][j]
            if t[x][w] != w or t[w][x] != w:
                return False
            for k in range(lam):
                for l in range(lam):
                    y = units[k][l]
                    want = units[i][l] if j == k else w
                    if t[x][y] != want:
                        return False
    return True


def reference_find_matrix_unit_copy(
    T: FiniteSemigroup, lam: int, anchor_zero: bool = False
) -> Optional[MatrixUnitCopy]:
    """Search T for a subsemigroup isomorphic to the rank-lam matrix units.

    Backtracks over the diagonal idempotent images first, then the first row
    and column; the remaining units are forced as products.  With
    ``anchor_zero`` the copy's zero must be T's own zero.
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
    zero_candidates = (T.zero,) if anchor_zero else idem

    for w in zero_candidates:
        diag_pool = [
            e for e in idem if e != w and t[e][w] == w and t[w][e] == w
        ]
        for diag in itertools.combinations(diag_pool, lam):
            if any(
                t[diag[i]][diag[j]] != w or t[diag[j]][diag[i]] != w
                for i in range(lam)
                for j in range(i + 1, lam)
            ):
                continue
            copy = _extend_rows_cols(T, lam, w, diag)
            if copy is not None:
                return copy
    return None


def _extend_rows_cols(T, lam, w, diag) -> Optional[MatrixUnitCopy]:
    t = T.table
    n = T.order
    f0 = diag[0]
    # candidate (a, b) pairs per column j: a plays unit (0,j), b plays (j,0)
    options = []
    for j in range(1, lam):
        fj = diag[j]
        pairs = []
        for a in range(n):
            if a == w or t[f0][a] != a or t[a][fj] != a:
                continue
            for b in range(n):
                if b == w or t[fj][b] != b or t[b][f0] != b:
                    continue
                if t[a][b] == f0 and t[b][a] == fj:
                    pairs.append((a, b))
        if not pairs:
            return None
        options.append(pairs)

    for choice in itertools.product(*options):
        row0 = [f0] + [a for a, _ in choice]
        col0 = [f0] + [b for _, b in choice]
        units = [
            [t[col0[i]][row0[j]] if i or j else f0 for j in range(lam)]
            for i in range(lam)
        ]
        for j in range(lam):
            units[0][j] = row0[j]
            units[j][0] = col0[j]
        units = tuple(tuple(r) for r in units)
        if _verify_copy(T, lam, w, units):
            return MatrixUnitCopy(lam=lam, zero_image=w, unit_images=units)
    return None


def _definitional_coords(ext) -> list[tuple[int, int, int]]:
    """The (a, s, b) of carrier indices 1, 2, ... by the definition: (a, b, s)
    order, s over the nonzero base indices ascending."""
    nonzero = [s for s in range(ext.base.order) if s != ext.base.zero]
    lam = ext.lam
    return [(a, s, b) for a in range(lam) for b in range(lam) for s in nonzero]


def reference_induced_hom(triple, source_ext, target_ext) -> tuple[int, ...]:
    """The map table a triple induces, one carrier index at a time:
    (a, s, b) goes to (phi(a), u(a) h(s) u(b)^-1, phi(b)) when h(s) is
    nonzero, and to the zero otherwise."""
    T = triple.base.target
    h = triple.base.mapping
    tt = T.table
    inv = maximal_subgroup(T, triple.idempotent).inverses
    u, phi = triple.weights, triple.index_map
    index = {c: i for i, c in enumerate(_definitional_coords(target_ext), start=1)}
    mapping = [0] * source_ext.carrier.order
    for idx, (a, s, b) in enumerate(_definitional_coords(source_ext), start=1):
        if h[s] != T.zero:
            mapping[idx] = index[(phi[a], tt[tt[u[a]][h[s]]][inv[u[b]]], phi[b])]
    return tuple(mapping)


def reference_recover_triple(sigma, source_ext, target_ext):
    """recover_triple as it was before it read the triple through the facts
    every homomorphism obeys: it anchors at sigma(0, 1, 0) and rejects, each
    with its own reason, an anchor image at the zero, off the diagonal or
    with a middle that is not idempotent, a unit image that leaves the anchor
    column and a diagonal image that leaks out of the anchor block, before
    the product law, make_triple and the reconstruction decide."""
    _require_map(sigma, source_ext, target_ext.carrier)
    S, T = source_ext.base, target_ext.base
    _check_ranks(S, T, source_ext.lam, target_ext.lam)

    one = source_ext.position[S.identity]
    diag = sigma.mapping[source_ext.block_starts[0][0] + one]
    if diag == 0:
        return NotClassifiable("anchor unit maps to zero")
    coords = target_ext.coords
    a_prime, e, b_prime = coords[diag]
    if a_prime != b_prime:
        return NotClassifiable("anchor unit image is off the diagonal")
    if T.table[e][e] != e:
        return NotClassifiable("anchor image middle is not idempotent")

    phi, u = [], []
    for b in range(source_ext.lam):
        img = sigma.mapping[source_ext.block_starts[b][0] + one]
        if img == 0:
            return NotClassifiable(f"unit ({b},1,0) maps to zero")
        x, t, y = coords[img]
        if y != a_prime:
            return NotClassifiable(f"unit ({b},1,0) image leaves the anchor column")
        phi.append(x)
        u.append(t)

    start = source_ext.block_starts[0][0]
    diagonal = sigma.mapping[start : start + len(source_ext.nonzero_base)]
    anchor = target_ext.block_starts[a_prime][a_prime]
    m2 = len(target_ext.nonzero_base)
    h = [T.zero] * S.order
    for s, img in zip(source_ext.nonzero_base, diagonal):
        if img == 0:
            continue
        if not anchor <= img < anchor + m2:
            return NotClassifiable("diagonal block image leaks outside the anchor block")
        h[s] = target_ext.nonzero_base[img - anchor]
    try:
        base = check_homomorphism(h, S, T)
    except NotHomomorphism as exc:
        return NotClassifiable(f"recovered base map fails the product law: {exc}")
    try:
        triple = make_triple(base, u, phi, target_ext.lam)
    except IllFormedTriple as exc:
        return NotClassifiable(str(exc))
    rebuilt = induced_hom(triple, source_ext, target_ext).mapping
    if rebuilt != sigma.mapping:
        first = next(i for i, (x, y) in enumerate(zip(rebuilt, sigma.mapping)) if x != y)
        return NotClassifiable(f"reconstruction differs at carrier index {first}")
    return triple


def reference_extension_table(S: FiniteSemigroup, lam: int) -> tuple[tuple[int, ...], ...]:
    """The carrier table of the extension of S over lam indices, by the
    definition: (a, s, b) sits at 1 + (a*lam + b)*m + (its rank among the m
    nonzero base indices), and only the products (a, s, b)(b, t, d) are
    visited, one cell at a time; every other cell is 0."""
    nonzero = [s for s in range(S.order) if s != S.zero]
    m = len(nonzero)
    pos = {s: p for p, s in enumerate(nonzero)}
    offsets = [[pos.get(S.table[s][t]) for t in nonzero] for s in nonzero]
    n = lam * lam * m + 1
    table = [[0] * n for _ in range(n)]
    for a in range(lam):
        for b in range(lam):
            rows = table[1 + (a * lam + b) * m : 1 + (a * lam + b + 1) * m]
            for d in range(lam):
                col = 1 + (b * lam + d) * m
                out = 1 + (a * lam + d) * m
                for row, offs in zip(rows, offsets):
                    for q, r in enumerate(offs):
                        if r is not None:
                            row[col + q] = out + r
    return tuple(map(tuple, table))


def reference_extension_labels(S: FiniteSemigroup, lam: int) -> tuple[str, ...]:
    """The default carrier labels: "0", then "(a,s,b)" in (a, b, s) order."""
    nonzero = [s for s in range(S.order) if s != S.zero]
    return ("0",) + tuple(
        f"({a},{S.labels[s]},{b})" for a in range(lam) for b in range(lam) for s in nonzero
    )


def reference_subsemigroup(S: FiniteSemigroup, members) -> FiniteSemigroup:
    """The restriction of S to a product-closed subset, reindexed in
    ascending order and validated in full.  Every pair is checked for
    closure in row order first; AlgebraError names the first that escapes."""
    members = tuple(sorted(set(members)))
    pos = {x: i for i, x in enumerate(members)}
    for x in members:
        for y in members:
            if S.table[x][y] not in pos:
                raise AlgebraError(f"subset not closed: {S.labels[x]}*{S.labels[y]} escapes")
    table = [[pos[S.table[x][y]] for y in members] for x in members]
    return build_semigroup(table, [S.labels[x] for x in members])


def reference_image_witness(sigma, source_ext, ext0, image_globals) -> tuple[int, ...]:
    """The map from the extension ``ext0`` of the diagonal-block image T0
    onto the image of ``sigma``, indexed by ``image_globals``: (a, t, b)
    goes to sigma(a, s, b) for each s with sigma(0, s, 0) = t, and every such
    s must give the same image.  T0 lists the images of the diagonal block
    and the zero image ascending, as subsemigroups do."""
    z = sigma.mapping[0]
    index = {c: i for i, c in enumerate(_definitional_coords(source_ext), start=1)}
    reps = {}
    for s in range(source_ext.base.order):
        if s != source_ext.base.zero:
            g = sigma.mapping[index[(0, s, 0)]]
            if g != z:
                reps.setdefault(g, []).append(s)
    t0_globals = sorted([*reps, z])
    loc = {g: i for i, g in enumerate(image_globals)}
    mapping = [loc[z]]
    for a, t, b in _definitional_coords(ext0):
        images = {sigma.mapping[index[(a, s, b)]] for s in reps[t0_globals[t]]}
        assert len(images) == 1, f"representatives of ({a},{t},{b}) disagree"
        mapping.append(loc[images.pop()])
    return tuple(mapping)


def _inverses_of(S: FiniteSemigroup, x: int) -> list[int]:
    """Every y with xyx = x and yxy = y."""
    t = S.table
    return [y for y in range(S.order) if t[t[x][y]][x] == x and t[t[y][x]][y] == y]


def reference_is_inverse(S: FiniteSemigroup) -> bool:
    """Every element has exactly one inverse."""
    return all(len(_inverses_of(S, x)) == 1 for x in range(S.order))


def reference_is_clifford(S: FiniteSemigroup) -> bool:
    """Inverse, and x * x^-1 = x^-1 * x for every x."""
    if not reference_is_inverse(S):
        return False
    t = S.table
    return all(t[x][y] == t[y][x] for x in range(S.order) for y in _inverses_of(S, x))


def reference_is_primitive_inverse(S: FiniteSemigroup) -> bool:
    """Inverse, with a zero, and no non-zero idempotent f below another
    non-zero idempotent e (f <= e iff ef = fe = f)."""
    t = S.table
    nonzero = [e for e in range(S.order) if t[e][e] == e and e != S.zero]
    return (
        S.zero is not None
        and reference_is_inverse(S)
        and not any(f != e and t[e][f] == f == t[f][e] for e in nonzero for f in nonzero)
    )


@dataclass(frozen=True)
class IdempotentOrder:
    """E(S) with its natural partial order and the primitive idempotents.

    When S has no zero, minimality is taken over all of E(S).
    """

    idempotents: tuple[int, ...]
    pairs: frozenset
    primitives: tuple[int, ...]

    def le(self, e: int, f: int) -> bool:
        return (e, f) in self.pairs


def idempotent_order(S: FiniteSemigroup) -> IdempotentOrder:
    """Compute e <= f iff ef = fe = e on E(S)."""
    idem = S.idempotents
    t = S.table
    pairs = frozenset(
        (e, f) for e in idem for f in idem if t[e][f] == e and t[f][e] == e
    )
    nonzero = [e for e in idem if e != S.zero]
    primitives = tuple(
        e
        for e in nonzero
        if not any(f != e and (f, e) in pairs for f in nonzero)
    )
    return IdempotentOrder(idempotents=idem, pairs=pairs, primitives=primitives)


def reference_identity(S: FiniteSemigroup) -> Optional[int]:
    """The element e with ex = xe = x for every x, or None."""
    t, n = S.table, S.order
    return next(
        (e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None
    )


def reference_element_profiles(S: FiniteSemigroup) -> list:
    """Per element x: (x idempotent, (tail, period) of its powers, |x·S|,
    |S·x|, x in x·S, x in S·x), each row and column read cell by cell."""
    t = S.table
    n = S.order
    out = []
    for x in range(n):
        row = {t[x][y] for y in range(n)}
        col = {t[y][x] for y in range(n)}
        powers, p = [x], t[x][x]
        while p not in powers:
            powers.append(p)
            p = t[p][x]
        tail = powers.index(p)
        out.append((t[x][x] == x, (tail, len(powers) - tail), len(row), len(col), x in row, x in col))
    return out
