import itertools

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from brandt import build_semigroup


def _relabeled(S, rng):
    """The same semigroup with its elements renamed by a random permutation."""
    perm = list(range(S.order))
    rng.shuffle(perm)
    table = [[0] * S.order for _ in range(S.order)]
    for i in range(S.order):
        for j in range(S.order):
            table[perm[i]][perm[j]] = perm[S.table[i][j]]
    return build_semigroup(table)


def small_semigroups():
    """Every associative table of order at most 3, as a semigroup: 1 + 8 +
    113 = 122 of them."""
    out = []
    for n in (1, 2, 3):
        r = range(n)
        for cells in itertools.product(r, repeat=n * n):
            t = [cells[i * n : (i + 1) * n] for i in r]
            if all(t[t[x][y]][z] == t[x][t[y][z]] for x in r for y in r for z in r):
                out.append(build_semigroup(t))
    return out


@pytest.fixture
def relabeled():
    return _relabeled


@st.composite
def associative_tables(draw):
    """A table of order <= 4, each cell drawn from the values that keep the
    products defined so far associative."""
    n = draw(st.integers(min_value=1, max_value=4))
    t = [[None] * n for _ in range(n)]

    def consistent():
        for x in range(n):
            for y in range(n):
                xy = t[x][y]
                if xy is None:
                    continue
                for z in range(n):
                    yz = t[y][z]
                    if yz is None:
                        continue
                    left, right = t[xy][z], t[x][yz]
                    if None not in (left, right) and left != right:
                        return False
        return True

    for i in range(n):
        for j in range(n):
            choices = []
            for v in range(n):
                t[i][j] = v
                if consistent():
                    choices.append(v)
            assume(choices)  # a dead end: no value keeps the table associative
            t[i][j] = draw(st.sampled_from(choices))
    return t
