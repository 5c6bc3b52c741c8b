import pytest

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


@pytest.fixture
def relabeled():
    return _relabeled
