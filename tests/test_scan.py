"""The branch-and-bound rectangle search against the brute-force oracle, d = 1..4."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splade import _scan
from splade._scan import DegenerateScanError, NoAdmissibleRectError, best_rectangle
from splade.lattice import Grid, LatticeError, Rect, build_prefix_sum
from splade.single import SearchBounds, naive_ls

from helpers import brute_force_search

# largest tiny grid per rank; cases draw each side from 2..this
TINY = {1: (13,), 2: (6, 5), 3: (4, 3, 4), 4: (3, 3, 2, 3)}


@pytest.fixture(params=["whole", "branch-and-bound"])
def search(request, monkeypatch):
    # Tiny search spaces fit in one batch and are scored whole; with smaller
    # leaves and batches they go through the branch and bound instead.
    if request.param == "branch-and-bound":
        monkeypatch.setattr(_scan, "_LEAF_PAIRS", 4)
        monkeypatch.setattr(_scan, "_BATCH_PAIRS", 64)


def _zero_sum_integers(rng, dims):
    # Integer cells summing to zero make the grand mean exactly 0.0, so every
    # production score is one correctly rounded division and scores that tie
    # in exact arithmetic tie in floating point too.
    x = rng.integers(-2, 3, size=dims).astype(np.float64)
    x.flat[int(rng.integers(x.size))] -= x.sum()
    return x


def _candidates(rng, n, windowed):
    lo, hi = np.arange(0, n), np.arange(1, n + 1)
    if not windowed:
        return lo, hi

    def pick(a):
        return np.sort(rng.choice(a, size=int(rng.integers(1, a.size + 1)), replace=False))

    return pick(lo), pick(hi)


def _assert_argmax(grid, lam1, lam2, rect, found, exact):
    """``rect`` is the oracle's pick; or, for real-valued data (``exact`` false),
    a rectangle whose exact score ties it, such as a slab and its complement,
    between which rounding decides."""
    if rect == found[1]:
        return
    assert not exact, (rect, found)
    own = brute_force_search(grid, lam1, lam2, [[lo] for lo in rect.lo], [[hi] for hi in rect.hi])
    assert own[0] == pytest.approx(found[0], rel=1e-12), (rect, found)


def _tables(x, exact):
    """The prefix table of ``x``, and a window holding ``x`` at origin (2, ..., 2)
    of the table of a larger grid whose other cells sit near a large offset.

    The offset is an integer for integer data, so every table entry stays
    exact and so do the scores."""
    shape = tuple(m + 3 for m in x.shape)
    offset = 2.0**20 if exact else 1e3
    big = offset + (np.arange(math.prod(shape)) % 5 - 2.0).reshape(shape)
    big[tuple(slice(2, 2 + m) for m in x.shape)] = x
    window = Rect((2,) * x.ndim, tuple(2 + m for m in x.shape))
    return build_prefix_sum(Grid.from_array(x)), build_prefix_sum(Grid.from_array(big)).window(window)


def _check(x, lam1, lam2, lo_axes, hi_axes, exact):
    grid = Grid.from_array(x)
    n = grid.size
    found = brute_force_search(grid, lam1, lam2, lo_axes, hi_axes)
    for ps in _tables(x, exact):
        args = (ps, lo_axes, hi_axes, n * lam1, n * lam2)
        if found is None:
            with pytest.raises(NoAdmissibleRectError):
                best_rectangle(*args)
        elif found[0] == 0:
            with pytest.raises(DegenerateScanError):
                best_rectangle(*args)
        else:
            rect, score = best_rectangle(*args)
            _assert_argmax(grid, lam1, lam2, rect, found, exact)
            assert score == pytest.approx(math.sqrt(found[0]) / n, rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["gaussian", "integer"])
def test_best_rectangle_matches_oracle(d, kind, search):
    rng = np.random.default_rng(10 * d + (kind == "integer"))
    for case in range(12):
        dims = tuple(int(rng.integers(2, m + 1)) for m in TINY[d])
        if kind == "integer":
            x = _zero_sum_integers(rng, dims)
        else:
            x = rng.standard_normal(dims)
            x[tuple(slice(int(rng.integers(m)), None) for m in dims)] += 1.5
        if case % 3 == 0:
            lam1, lam2 = 0.0, 1.0
        else:
            lam1 = float(rng.uniform(0.0, 0.5))
            lam2 = float(rng.uniform(lam1 + 0.05, 1.0))
        axes = [_candidates(rng, m, windowed=case % 2 == 1) for m in dims]
        _check(x, lam1, lam2, [lo for lo, _ in axes], [hi for _, hi in axes], kind == "integer")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_best_rectangle_oracle_hypothesis(search, data):
    d = data.draw(st.integers(1, 4))
    dims = tuple(data.draw(st.integers(1, m)) for m in TINY[d])
    size = math.prod(dims)
    values = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    x = np.array(values, dtype=np.float64).reshape(dims)
    x.flat[0] -= x.sum()  # zero sum, see _zero_sum_integers
    lam1 = data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
    lam2 = data.draw(st.sampled_from([lam for lam in (0.3, 0.6, 0.9, 1.0) if lam > lam1]))

    def corners(first, count):
        picked = data.draw(st.lists(st.integers(first, first + count - 1), min_size=1, unique=True))
        return np.array(sorted(picked))

    _check(x, lam1, lam2, [corners(0, m) for m in dims], [corners(1, m) for m in dims], True)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_naive_ls_matches_oracle_with_bounds(d, search):
    rng = np.random.default_rng(40 + d)
    for case in range(6):
        dims = tuple(int(rng.integers(2, m + 1)) for m in TINY[d])
        x = _zero_sum_integers(rng, dims) if case % 2 else rng.standard_normal(dims)
        bounds = SearchBounds(*sorted(rng.uniform(0.0, 1.0, 2)))
        grid = Grid.from_array(x)
        found = brute_force_search(grid, bounds.lambda1, bounds.lambda2)
        if found is None:
            with pytest.raises(LatticeError):
                naive_ls(grid, bounds)
        elif found[0] == 0:
            with pytest.raises(DegenerateScanError):
                naive_ls(grid, bounds)
        else:
            rect = naive_ls(grid, bounds)
            _assert_argmax(grid, bounds.lambda1, bounds.lambda2, rect, found, case % 2 == 1)


# a few cells more than TINY per rank, so random nodes span several candidates
SMALL = {1: (24,), 2: (8, 7), 3: (5, 4, 5), 4: (4, 3, 3, 4)}


def _random_nodes(rng, cands, count):
    """Nodes of random index ranges over the candidate arrays ``cands``
    (lo slots, then hi slots).  Many have an empty R_min; about one in three
    is pulled, where the candidates allow, to an R_min one cell thick on one
    axis."""
    d = len(cands) // 2
    nodes = np.empty((count, 2 * d, 2), dtype=np.int32)
    for node in nodes:
        for j, c in enumerate(cands):
            start = int(rng.integers(c.size))
            node[j] = start, int(rng.integers(start + 1, c.size + 1))
        if rng.random() < 1 / 3:  # pull R_min's hi to one cell past its lo on one axis
            k = int(rng.integers(d))
            lo_last = cands[k][node[k, 1] - 1]
            at = int(np.searchsorted(cands[d + k], lo_last + 1))
            if at < cands[d + k].size and cands[d + k][at] == lo_last + 1:
                node[d + k] = at, max(at + 1, int(node[d + k, 1]))
    return nodes


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bound_is_at_least_every_score_of_its_node(d):
    """``_bound`` of random nodes against the best score of each node scored
    whole: a bound term that is not valid fails here even where the search's
    final rectangle survives it."""
    rng = np.random.default_rng(70 + d)
    checked = {"empty": 0, "thin": 0, "thick": 0}  # R_min's least side
    for case in range(6):
        dims = tuple(int(rng.integers(2, m + 1)) for m in SMALL[d])
        exact = case % 2 == 1
        x = _zero_sum_integers(rng, dims) if exact else rng.standard_normal(dims)
        if not exact:
            x[tuple(slice(int(rng.integers(m)), None) for m in dims)] += 1.5
        n = x.size
        lam1, lam2 = (0.0, 1.0) if case < 2 else sorted(rng.uniform(0.0, 1.0, 2))
        axes = [_candidates(rng, m, windowed=case % 3 == 2) for m in dims]
        lo_axes = [lo.astype(np.int64) for lo, _ in axes]
        hi_axes = [hi.astype(np.int64) for _, hi in axes]
        for ps in _tables(x, exact):
            search = _scan._Search(ps, lo_axes, hi_axes, n * lam1, min(n * lam2, n))
            search._build_bound_tables()
            nodes = _random_nodes(rng, search.cands, 150)
            bounds, _ = search._bound(nodes)
            for node, bound in zip(nodes, bounds):
                best = search._score_leaves(node[None], _scan._NONE)
                if best == _scan._NONE:
                    continue  # no admissible pair: nothing to cover
                assert bound >= -best[0], (dims, exact, node.tolist(), bound, best)
                thickness = min(
                    search.cands[d + k][node[d + k, 0]] - search.cands[k][node[k, 1] - 1] for k in range(d)
                )
                checked["empty" if thickness <= 0 else "thin" if thickness == 1 else "thick"] += 1
    assert checked["empty"] >= 20 and checked["thin"] >= 20, checked


def test_offset_table_prunes_as_well(monkeypatch):
    """A 2-D patch whose lo and hi candidate windows overlap, so many nodes
    have an empty R_min: the search scores few of the candidate pairs, and
    as few again when every cell is raised by 1e3, which only the rounding
    allowances see."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((256, 256))
    x[100:124, 90:114] += 1.5
    lo = [np.arange(86, 114), np.arange(76, 104)]
    hi = [np.arange(110, 138), np.arange(100, 128)]
    pairs = math.prod(a.size for a in lo + hi)
    monkeypatch.setattr(_scan, "_BATCH_PAIRS", 4096)  # count in small steps
    scored = []
    score_leaves = _scan._Search._score_leaves

    def counting(self, leaves, best):
        scored[-1] += int(_scan._pairs(leaves).sum())
        return score_leaves(self, leaves, best)

    monkeypatch.setattr(_scan._Search, "_score_leaves", counting)
    found = []
    for offset in (0.0, 1e3):
        scored.append(0)
        ps = build_prefix_sum(Grid.from_array(x + offset))
        found.append(best_rectangle(ps, lo, hi, 0.0, float(x.size))[0])
    assert found == [Rect((100, 90), (124, 114))] * 2
    assert scored[0] <= pairs // 10, (scored, pairs)
    assert scored[1] <= 1.1 * scored[0], scored


def test_best_rectangle_no_admissible_candidate(search):
    ps = build_prefix_sum(Grid.from_array(np.arange(24.0).reshape(2, 3, 4)))
    lo = [np.arange(2), np.arange(3), np.arange(4)]
    hi = [np.arange(1, 3), np.arange(1, 4), np.arange(1, 5)]
    with pytest.raises(NoAdmissibleRectError, match="empty candidate axis"):
        best_rectangle(ps, [lo[0], np.array([], dtype=np.int64), lo[2]], hi, 0.0, 24.0)
    with pytest.raises(NoAdmissibleRectError):
        best_rectangle(ps, lo, hi, 20.5, 21.5)  # 21 = 3 * 7 is no box volume here
    with pytest.raises(NoAdmissibleRectError):
        best_rectangle(ps, [[1], [2], [3]], [[1], [2], [3]], 0.0, 24.0)  # lo == hi


@pytest.mark.parametrize("dims", [(9,), (5, 4), (3, 4, 3), (3, 2, 3, 2)])
def test_constant_grid_is_degenerate(dims, search):
    grid = Grid.from_array(np.full(dims, 2.5))
    lo = [np.arange(m) for m in dims]
    hi = [np.arange(1, m + 1) for m in dims]
    for ps in _tables(grid.data, exact=True):
        with pytest.raises(DegenerateScanError):
            best_rectangle(ps, lo, hi, 0.0, float(grid.size))
    with pytest.raises(DegenerateScanError):
        naive_ls(grid, SearchBounds())


def test_concurrent_searches_match_sequential():
    rng = np.random.default_rng(7)
    grids = []
    for dims in [(40,), (24, 20), (9, 8, 10), (5, 6, 5, 6)] * 2:
        x = rng.standard_normal(dims)
        x[tuple(slice(m // 4, 3 * m // 4) for m in dims)] += 1.0
        grids.append(Grid.from_array(x))
    sequential = [naive_ls(g, SearchBounds()) for g in grids]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda g: naive_ls(g, SearchBounds()), grids))
    assert concurrent == sequential
