"""The branch-and-bound node schedule: how nodes are halved, and how many
levels a large search bounds.  Exactness against the oracle is in test_scan."""

import math

import numpy as np
import pytest

from splade import _scan
from splade._scan import best_rectangle


def _halvings(node, times):
    """The split rule spelled out one node at a time: a node of more than
    _LEAF_PAIRS pairs is cut on its longest range (the first, on a tie) at the
    largest power of two below that range's length, then each half again."""
    lengths = node[:, 1] - node[:, 0]
    if times == 0 or math.prod(lengths.tolist()) <= _scan._LEAF_PAIRS:
        return [node]
    j = int(np.argmax(lengths))
    mid = node[j, 0] + (1 << (int(lengths[j]) - 1).bit_length() - 1)
    left, right = node.copy(), node.copy()
    left[j, 1] = right[j, 0] = mid
    return _halvings(left, times - 1) + _halvings(right, times - 1)


def _random_nodes(rng, count):
    nodes = []
    for _ in range(count):
        d = int(rng.integers(1, 5))
        # most nodes are large; some are at or below _LEAF_PAIRS, several
        # with every range of length 1
        top = int(rng.choice([1, 4, 40, 300]))
        start = rng.integers(0, 50, size=2 * d)
        nodes.append(np.stack([start, start + rng.integers(1, top + 1, size=2 * d)], axis=1))
    return nodes


@pytest.mark.parametrize("times", [1, 2, 8])
def test_split_partitions_pairs_and_keeps_leaves_whole(times):
    rng = np.random.default_rng(times)
    for parent in _random_nodes(rng, 60):
        children = _scan._split(parent[None].astype(np.int32), times)
        pairs = _scan._pairs(children)
        assert pairs.sum() == _scan._pairs(parent[None])[0]
        assert (children[:, :, 0] >= parent[:, 0]).all() and (children[:, :, 1] <= parent[:, 1]).all()
        assert (children[:, :, 0] < children[:, :, 1]).all()
        a, b = children[:, None], children[None, :]
        overlap = (np.maximum(a[..., 0], b[..., 0]) < np.minimum(a[..., 1], b[..., 1])).all(axis=2)
        np.fill_diagonal(overlap, False)
        assert not overlap.any()
        # the partition is the rule's, so no node of <= _LEAF_PAIRS pairs was cut
        want = sorted(n.tolist() for n in _halvings(parent, times))
        assert sorted(children.tolist()) == want


def test_large_2d_search_equals_whole_scoring_in_few_levels(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((32, 32))
    x[7:19, 11:29] += 0.8
    lo, hi = [range(32)] * 2, [range(1, 33)] * 2
    pairs = 32**4
    assert pairs > _scan._BATCH_PAIRS

    levels = []
    bound = _scan._Search._bound

    def counting(self, nodes):
        levels.append(len(nodes))
        return bound(self, nodes)

    with monkeypatch.context() as m:
        m.setattr(_scan._Search, "_bound", counting)
        rect, score = best_rectangle(x, lo, hi, 0.0, 1024.0)
    # the root is pre-split and every level halves twice; one halving per
    # level from the root took 13 levels here
    assert 1 <= len(levels) <= 8, levels
    assert levels[0] == 1 << _scan._ROOT_SPLITS

    monkeypatch.setattr(_scan, "_BATCH_PAIRS", pairs + 1)
    assert best_rectangle(x, lo, hi, 0.0, 1024.0) == (rect, score)


@pytest.mark.parametrize("d", [3, 4])
def test_large_nd_search_equals_whole_scoring(d, monkeypatch):
    # windows of 10 lo and 10 hi corners per axis in 3-D (10^6 pairs), 6 and
    # 6 in 4-D (6^8 pairs), overlapping so that many nodes have an empty R_min
    side, width = {3: (16, 10), 4: (10, 6)}[d]
    rng = np.random.default_rng(d)
    x = rng.standard_normal((side,) * d)
    x[(slice(side // 4, 3 * side // 4),) * d] += 0.8
    lo, hi = [range(width)] * d, [range(side - width + 1, side + 1)] * d
    assert width ** (2 * d) > _scan._BATCH_PAIRS

    found = best_rectangle(x, lo, hi, 0.0, float(x.size))
    monkeypatch.setattr(_scan, "_BATCH_PAIRS", width ** (2 * d))
    assert best_rectangle(x, lo, hi, 0.0, float(x.size)) == found
