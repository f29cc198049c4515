"""The branch-and-bound rectangle search against the brute-force oracle, d = 1..4."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splade import _scan
from splade._scan import DegenerateScanError, NoAdmissibleRectError, best_rectangle
from splade.lattice import Grid, LatticeError, Rect
from splade.single import SearchBounds, naive_ls

from helpers import brute_force_search, direct_rect_sum, strided

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
    """Every lo and hi corner of an axis of ``n`` cells, or a random window of each."""
    lo, hi = range(0, n), range(1, n + 1)
    if not windowed:
        return lo, hi

    def window(r):
        start = int(rng.integers(len(r)))
        return r[start:int(rng.integers(start + 1, len(r) + 1))]

    return window(lo), window(hi)


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
    """The cells ``x``, and the same cells as a view at (2, ..., 2) of a larger
    array whose other cells sit near a large offset: a search reads only the
    cells it is handed.

    The offset is an integer for integer data, so a read outside the view
    would change the sums without breaking their exactness."""
    shape = tuple(m + 3 for m in x.shape)
    offset = 2.0**20 if exact else 1e3
    big = offset + (np.arange(math.prod(shape)) % 5 - 2.0).reshape(shape)
    view = big[tuple(slice(2, 2 + m) for m in x.shape)]
    view[...] = x
    return x, view


def _check(x, lam1, lam2, lo_axes, hi_axes, exact):
    grid = Grid.from_array(x)
    n = grid.size
    found = brute_force_search(grid, lam1, lam2, lo_axes, hi_axes)
    for cells in _tables(x, exact):
        args = (cells, lo_axes, hi_axes, n * lam1, n * lam2)
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
        start = data.draw(st.integers(first, first + count - 1))
        return range(start, start + data.draw(st.integers(1, first + count - start)))

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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_equal_volume_and_sum_fall_to_the_tie_rule(d, search):
    """Integer cells whose mean is no integer: rectangles of equal volume and
    equal cell sum score the same bits, so the corner tie rule decides between
    them.  The pick may differ from the exact oracle's only where rounding
    separates scores that tie in exact arithmetic, never between two such
    rectangles."""
    rng = np.random.default_rng(90 + d)
    checked = 0
    for _ in range(150):
        dims = tuple(int(rng.integers(2, m + 1)) for m in TINY[d])
        x = rng.integers(-2, 3, size=dims).astype(np.float64)
        if x.sum() % x.size == 0:
            continue  # an integer mean: every score is exact anyway
        grid = Grid.from_array(x)
        found = brute_force_search(grid, 0.0, 1.0)
        if found is None or found[0] == 0:
            continue
        lo = [range(m) for m in dims]
        hi = [range(1, m + 1) for m in dims]
        rect, _ = best_rectangle(x, lo, hi, 0.0, float(x.size))
        checked += 1
        if rect != found[1]:
            own = (rect.volume(), direct_rect_sum(grid, rect))
            assert own != (found[1].volume(), direct_rect_sum(grid, found[1])), (x.tolist(), rect, found)
            _assert_argmax(grid, 0.0, 1.0, rect, found, exact=False)
    assert checked >= 100, checked


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_best_rectangle_does_not_depend_on_strides(d):
    """C-ordered, Fortran-ordered and stride-2-view cells give the same
    rectangle and score, bit for bit: the grand mean is summed in one order
    whatever the layout."""
    rng = np.random.default_rng(110 + d)
    side = {1: (300, 3000), 2: (20, 60), 3: (8, 16), 4: (5, 8)}[d]
    for _ in range(10):
        dims = tuple(int(rng.integers(*side)) for _ in range(d))
        x = rng.standard_normal(dims) + rng.uniform(-1e3, 1e3)
        x[tuple(slice(m // 3, m // 2) for m in dims)] += 2.0
        axes = [_candidates(rng, m, windowed=True) for m in dims]
        lo, hi = [a for a, _ in axes], [b for _, b in axes]
        got = []
        for cells in (x, np.asfortranarray(x), strided(x, np.nan)):
            try:
                rect, score = best_rectangle(cells, lo, hi, 0.0, float(x.size))
                got.append((rect, score.hex()))
            except NoAdmissibleRectError:
                got.append(None)
        assert got[1:] == got[:1] * 2, (dims, got)


# a few cells more than TINY per rank, so random nodes span several candidates
SMALL = {1: (24,), 2: (8, 7), 3: (5, 4, 5), 4: (4, 3, 3, 4)}


def _random_nodes(rng, root, count):
    """Nodes of random sub-ranges of the search's root node ``root`` (lo
    slots, then hi slots, as table indices).  Many have an empty R_min; about
    one in three is pulled, where the root allows, to an R_min one cell thick
    on one axis."""
    d = len(root) // 2
    nodes = np.empty((count, 2 * d, 2), dtype=np.int32)
    for node in nodes:
        for j, (first, stop) in enumerate(root):
            start = int(rng.integers(first, stop))
            node[j] = start, int(rng.integers(start + 1, stop + 1))
        if rng.random() < 1 / 3:  # pull R_min's hi to one cell past its lo on one axis
            k = int(rng.integers(d))
            at = int(node[k, 1])  # R_min's lo is node[k, 1] - 1
            if root[d + k, 0] <= at < root[d + k, 1]:
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
        lo_axes, hi_axes = [lo for lo, _ in axes], [hi for _, hi in axes]
        for cells in _tables(x, exact):
            search = _scan._Search(cells, lo_axes, hi_axes, n * lam1, min(n * lam2, n))
            search._build_bound_tables()
            nodes = _random_nodes(rng, search.root[0], 150)
            bounds, _ = search._bound(nodes)
            for node, bound in zip(nodes, bounds):
                best = search._score_leaves(node[None], _scan._NONE)
                if best == _scan._NONE:
                    continue  # no admissible pair: nothing to cover
                assert bound >= -best[0], (dims, exact, node.tolist(), bound, best)
                thickness = min(node[d + k, 0] - (node[k, 1] - 1) for k in range(d))
                checked["empty" if thickness <= 0 else "thin" if thickness == 1 else "thick"] += 1
    assert checked["empty"] >= 20 and checked["thin"] >= 20, checked


def test_offset_table_prunes_as_well(monkeypatch):
    """A 2-D patch whose lo and hi candidate windows overlap, so many nodes
    have an empty R_min: the search scores few of the candidate pairs, and
    as few again when every cell is raised by 1e3, 1e6 or 1e9: the search
    centres its cells on the nearest integer to their mean, so its rounding
    allowances do not grow with the level."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((256, 256))
    x[100:124, 90:114] += 1.5
    lo = [range(86, 114), range(76, 104)]
    hi = [range(110, 138), range(100, 128)]
    pairs = math.prod(len(r) for r in lo + hi)
    monkeypatch.setattr(_scan, "_BATCH_PAIRS", 4096)  # count in small steps
    scored = []
    score_leaves = _scan._Search._score_leaves

    def counting(self, leaves, best):
        scored[-1] += int(_scan._pairs(leaves).sum())
        return score_leaves(self, leaves, best)

    monkeypatch.setattr(_scan._Search, "_score_leaves", counting)
    found = []
    offsets = (0.0, 1e3, 1e6, 1e9)
    for offset in offsets:
        scored.append(0)
        found.append(best_rectangle(x + offset, lo, hi, 0.0, float(x.size))[0])
    assert found == [Rect((100, 90), (124, 114))] * len(offsets)
    assert scored[0] <= pairs // 10, (scored, pairs)
    assert max(scored[1:]) <= 1.1 * scored[0], scored


def test_whole_scored_search_reads_only_nonempty_pairs(monkeypatch):
    """A search small enough to be scored whole (15 x 22 corners, the size of
    stage 1 on a subsampled 512^2 envelope) reads the box sums of its
    nonempty pairs alone: 120 * 253 = 30,360 of the 15^2 * 22^2 = 108,900 in
    the product of its corner ranges.  It still finds the oracle's rectangle."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((15, 22))
    x[3:9, 5:14] += 2.0
    lo, hi = [range(15), range(22)], [range(1, 16), range(1, 23)]
    read = []
    box_sums = _scan.box_sums

    def counting(table, lo, hi):
        read.append(np.broadcast(*lo, *hi).size)
        return box_sums(table, lo, hi)

    monkeypatch.setattr(_scan, "box_sums", counting)
    rect, _ = best_rectangle(x, lo, hi, 4.0, 326.0)
    assert read == [30360]
    assert rect == brute_force_search(Grid.from_array(x), 4.0 / 330, 326.0 / 330)[1]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_leaves_read_only_their_nonempty_pairs(d, monkeypatch):
    """Scored as one batch, random leaves (across, beside and beyond the
    diagonal lo = hi on each axis) read exactly their nonempty pairs, and
    give the best key of scoring each leaf alone."""
    rng = np.random.default_rng(90 + d)
    x = rng.standard_normal(SMALL[d])
    lo, hi = [range(m) for m in SMALL[d]], [range(1, m + 1) for m in SMALL[d]]
    search = _scan._Search(x, lo, hi, 0.0, float(x.size))
    leaves = _random_nodes(rng, search.root[0], 200)
    per_axis = [[sum(l < h for l in range(*leaf[k]) for h in range(*leaf[d + k])) for k in range(d)]
                for leaf in leaves.tolist()]
    lengths = (leaves[:, :, 1] - leaves[:, :, 0]).tolist()
    kinds = {"none": 0, "some": 0, "all": 0}
    for counts, lens in zip(per_axis, lengths):
        for k, c in enumerate(counts):
            kinds["none" if c == 0 else "all" if c == lens[k] * lens[d + k] else "some"] += 1
    assert min(kinds.values()) >= 10, kinds
    alone = min(search._score_leaves(leaf[None], _scan._NONE) for leaf in leaves)
    read = []
    box_sums = _scan.box_sums

    def counting(table, lo, hi):
        read.append(np.broadcast(*lo, *hi).size)
        return box_sums(table, lo, hi)

    monkeypatch.setattr(_scan, "box_sums", counting)
    assert search._score_leaves(leaves, _scan._NONE) == alone
    assert sum(read) == sum(math.prod(counts) for counts in per_axis)


def test_best_rectangle_no_admissible_candidate(search):
    x = np.arange(24.0).reshape(2, 3, 4)
    lo = [range(2), range(3), range(4)]
    hi = [range(1, 3), range(1, 4), range(1, 5)]
    with pytest.raises(NoAdmissibleRectError, match="empty candidate axis"):
        best_rectangle(x, [lo[0], range(0), lo[2]], hi, 0.0, 24.0)
    with pytest.raises(NoAdmissibleRectError):
        best_rectangle(x, lo, hi, 20.5, 21.5)  # 21 = 3 * 7 is no box volume here
    corners = [range(1, 2), range(2, 3), range(3, 4)]
    with pytest.raises(NoAdmissibleRectError):
        best_rectangle(x, corners, corners, 0.0, 24.0)  # lo == hi


@pytest.mark.parametrize("dims", [(9,), (5, 4), (3, 4, 3), (3, 2, 3, 2)])
def test_constant_grid_is_degenerate(dims, search):
    grid = Grid.from_array(np.full(dims, 2.5))
    lo = [range(m) for m in dims]
    hi = [range(1, m + 1) for m in dims]
    for cells in _tables(grid.data, exact=True):
        with pytest.raises(DegenerateScanError):
            best_rectangle(cells, lo, hi, 0.0, float(grid.size))
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
