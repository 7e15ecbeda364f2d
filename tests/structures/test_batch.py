"""Batch (data-parallel) query tests: window, point, and nearest probes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.brute import brute_window_query
from repro.geometry import clustered_map, random_segments
from repro.machine import Machine
from repro.structures import (
    batch_nearest_quadtree,
    batch_nearest_rtree,
    batch_point_query_quadtree,
    batch_point_query_rtree,
    batch_window_query_quadtree,
    batch_window_query_rtree,
    brute_nearest,
    build_bucket_pmr,
    build_pm1,
    build_rtree,
    quadtree_nearest,
    rtree_nearest,
)
from repro.structures.io import (load_structure, payload_checksum,
                                 payload_to_tree, save_structure,
                                 structure_payload)

DOMAIN = 512


def windows(k, seed):
    rng = np.random.default_rng(seed)
    r = np.zeros((k, 4))
    r[:, 0] = rng.integers(0, 400, k)
    r[:, 1] = rng.integers(0, 400, k)
    r[:, 2] = r[:, 0] + rng.integers(8, 112, k)
    r[:, 3] = r[:, 1] + rng.integers(8, 112, k)
    return r


class TestQuadtreeBatch:
    def setup_method(self):
        self.segs = random_segments(250, DOMAIN, 48, seed=3)
        self.tree, _ = build_bucket_pmr(self.segs, DOMAIN, 6)

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_scalar_queries(self, exact):
        rects = windows(30, 4)
        got = batch_window_query_quadtree(self.tree, rects, exact=exact)
        assert len(got) == 30
        for i, r in enumerate(rects):
            want = np.unique(self.tree.window_query(r, exact=exact))
            assert np.array_equal(got[i], want)

    def test_single_query(self):
        rect = np.array([[10, 10, 200, 200]], float)
        got = batch_window_query_quadtree(self.tree, rect)
        assert np.array_equal(got[0], np.unique(self.tree.window_query(rect[0])))

    def test_empty_query_set(self):
        assert batch_window_query_quadtree(self.tree, np.zeros((0, 4))) == []

    def test_all_miss(self):
        rects = np.array([[600, 600, 700, 700], [-50, -50, -10, -10]], float)
        got = batch_window_query_quadtree(self.tree, rects)
        assert all(g.size == 0 for g in got)

    def test_works_on_pm1(self):
        tree, _ = build_pm1(np.unique(self.segs, axis=0), DOMAIN)
        rects = windows(10, 5)
        got = batch_window_query_quadtree(tree, rects)
        for i, r in enumerate(rects):
            assert np.array_equal(got[i], np.unique(tree.window_query(r)))

    def test_rounds_bounded_by_height(self):
        m = Machine()
        rects = windows(64, 6)
        batch_window_query_quadtree(self.tree, rects, machine=m)
        # one elementwise test per frontier round: height+1 rounds max
        assert m.counts["elementwise"] <= self.tree.height + 2


class TestRtreeBatch:
    def setup_method(self):
        self.segs = clustered_map(250, clusters=5, spread=40, domain=DOMAIN, seed=7)
        self.tree, _ = build_rtree(self.segs, 2, 8)

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_scalar_queries(self, exact):
        rects = windows(30, 8)
        got = batch_window_query_rtree(self.tree, rects, exact=exact)
        for i, r in enumerate(rects):
            want = np.unique(self.tree.window_query(r, exact=exact))
            assert np.array_equal(got[i], want)

    def test_single_leaf_tree(self):
        small, _ = build_rtree(self.segs[:3], 1, 4)
        rects = windows(6, 9)
        got = batch_window_query_rtree(small, rects)
        for i, r in enumerate(rects):
            assert np.array_equal(got[i], np.unique(small.window_query(r)))

    def test_all_miss(self):
        rects = np.array([[600, 600, 700, 700]], float)
        got = batch_window_query_rtree(self.tree, rects)
        assert got[0].size == 0


def points(k, seed, lo=0, hi=500):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(lo, hi, k), rng.uniform(lo, hi, k)])


class TestEdgeCases:
    """Empty query lists and zero-segment trees must not raise."""

    def setup_method(self):
        self.segs = random_segments(40, DOMAIN, 48, seed=11)

    def test_empty_query_list_quadtree(self):
        tree, _ = build_bucket_pmr(self.segs, DOMAIN, 4)
        assert batch_window_query_quadtree(tree, []) == []
        assert batch_window_query_quadtree(tree, np.zeros((0, 4))) == []
        assert batch_point_query_quadtree(tree, []) == []
        assert batch_nearest_quadtree(tree, np.zeros((0, 2))) == []

    def test_empty_query_list_rtree(self):
        tree, _ = build_rtree(self.segs, 2, 6)
        assert batch_window_query_rtree(tree, []) == []
        assert batch_window_query_rtree(tree, np.zeros((0, 4))) == []
        assert batch_point_query_rtree(tree, []) == []
        assert batch_nearest_rtree(tree, np.zeros((0, 2))) == []

    def test_zero_segment_quadtree(self):
        tree, _ = build_bucket_pmr(np.zeros((0, 4)), DOMAIN, 4)
        got = batch_window_query_quadtree(tree, [[0, 0, 100, 100]])
        assert len(got) == 1 and got[0].size == 0
        got = batch_point_query_quadtree(tree, [[5.0, 5.0]])
        assert len(got) == 1 and got[0].size == 0

    def test_zero_segment_rtree(self):
        tree, _ = build_rtree(np.zeros((0, 4)), 1, 4)
        got = batch_window_query_rtree(tree, [[0, 0, 100, 100]])
        assert len(got) == 1 and got[0].size == 0

    def test_zero_segment_nearest_raises_like_scalar(self):
        qt, _ = build_bucket_pmr(np.zeros((0, 4)), DOMAIN, 4)
        rt, _ = build_rtree(np.zeros((0, 4)), 1, 4)
        with pytest.raises(ValueError):
            batch_nearest_quadtree(qt, [[1.0, 1.0]])
        with pytest.raises(ValueError):
            batch_nearest_rtree(rt, [[1.0, 1.0]])


class TestPointProbes:
    def setup_method(self):
        self.segs = random_segments(250, DOMAIN, 48, seed=13)
        self.pmr, _ = build_bucket_pmr(self.segs, DOMAIN, 6)
        self.rt, _ = build_rtree(self.segs, 2, 8)

    def test_quadtree_matches_scalar(self):
        pts = points(40, 14)
        got = batch_point_query_quadtree(self.pmr, pts)
        for i, (x, y) in enumerate(pts):
            assert np.array_equal(got[i], self.pmr.point_query(x, y))

    def test_pm1_matches_scalar(self):
        tree, _ = build_pm1(np.unique(self.segs, axis=0), DOMAIN)
        pts = points(20, 15)
        got = batch_point_query_quadtree(tree, pts)
        for i, (x, y) in enumerate(pts):
            assert np.array_equal(got[i], tree.point_query(x, y))

    def test_rtree_matches_scalar(self):
        pts = points(40, 16)
        got = batch_point_query_rtree(self.rt, pts)
        for i, (x, y) in enumerate(pts):
            assert np.array_equal(got[i], np.unique(self.rt.point_query(x, y)))

    def test_outside_domain_strict_raises(self):
        with pytest.raises(ValueError, match="outside the domain"):
            batch_point_query_quadtree(self.pmr, [[DOMAIN + 50.0, 5.0]])

    def test_outside_domain_lenient_is_empty(self):
        got = batch_point_query_quadtree(
            self.pmr, [[DOMAIN + 50.0, 5.0], [5.0, 5.0]], strict=False)
        assert got[0].size == 0
        assert np.array_equal(got[1], self.pmr.point_query(5.0, 5.0))

    def test_rounds_bounded_by_height(self):
        m = Machine()
        batch_point_query_quadtree(self.pmr, points(64, 17), machine=m)
        assert m.counts["elementwise"] <= self.pmr.height + 2


class TestNearestProbes:
    def setup_method(self):
        self.segs = clustered_map(250, clusters=6, spread=40, domain=DOMAIN,
                                  seed=19)
        self.pmr, _ = build_bucket_pmr(self.segs, DOMAIN, 6)
        self.rt, _ = build_rtree(self.segs, 2, 8)

    def test_quadtree_matches_scalar_and_brute(self):
        pts = points(40, 20)
        got = batch_nearest_quadtree(self.pmr, pts)
        for i, (x, y) in enumerate(pts):
            assert got[i] == quadtree_nearest(self.pmr, x, y)
            assert got[i] == brute_nearest(self.segs, x, y)

    def test_rtree_matches_scalar_and_brute(self):
        pts = points(40, 21)
        got = batch_nearest_rtree(self.rt, pts)
        for i, (x, y) in enumerate(pts):
            assert got[i] == rtree_nearest(self.rt, x, y)
            assert got[i] == brute_nearest(self.segs, x, y)

    def test_single_line_tree(self):
        one = self.segs[:1]
        qt, _ = build_bucket_pmr(one, DOMAIN, 4)
        rt, _ = build_rtree(one, 1, 4)
        pts = points(8, 22)
        for res in (batch_nearest_quadtree(qt, pts), batch_nearest_rtree(rt, pts)):
            for i, (x, y) in enumerate(pts):
                assert res[i] == brute_nearest(one, x, y)

    def test_tie_breaks_to_lowest_id(self):
        # two identical-distance lines straddling the probe point
        segs = np.array([[10, 20, 30, 20], [10, 40, 30, 40.]])
        qt, _ = build_bucket_pmr(segs, 64, 2)
        rt, _ = build_rtree(segs, 1, 4)
        got_q = batch_nearest_quadtree(qt, [[20.0, 30.0]])[0]
        got_r = batch_nearest_rtree(rt, [[20.0, 30.0]])[0]
        assert got_q == got_r == brute_nearest(segs, 20.0, 30.0)
        assert got_q[0] == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_fuzz_nearest_consensus(seed):
    rng = np.random.default_rng(seed)
    segs = random_segments(int(rng.integers(3, 80)), DOMAIN, 48, seed=seed)
    pmr, _ = build_bucket_pmr(segs, DOMAIN, 4)
    rt, _ = build_rtree(segs, 1, 4)
    pts = points(10, seed)
    got_q = batch_nearest_quadtree(pmr, pts)
    got_r = batch_nearest_rtree(rt, pts)
    for i, (x, y) in enumerate(pts):
        want = brute_nearest(segs, x, y)
        assert got_q[i] == want
        assert got_r[i] == want


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_fuzz_batch_consensus(seed):
    rng = np.random.default_rng(seed)
    segs = random_segments(int(rng.integers(5, 80)), DOMAIN, 48, seed=seed)
    pmr, _ = build_bucket_pmr(segs, DOMAIN, 4)
    rt, _ = build_rtree(segs, 1, 4)
    rects = windows(8, seed)
    got_q = batch_window_query_quadtree(pmr, rects)
    got_r = batch_window_query_rtree(rt, rects)
    for a, b in zip(got_q, got_r):
        assert np.array_equal(a, b)


# -- duplicate deletion and per-tree child indexes ------------------------


@pytest.fixture(scope="module")
def cloned():
    """A clustered map whose bucket PMR clones every line many times
    (capacity 4 over dense clusters), plus its R-tree and windows
    anchored on the data."""
    segs = clustered_map(1500, clusters=4, spread=40, domain=DOMAIN,
                         max_len=40, seed=21)
    pmr, _ = build_bucket_pmr(segs, DOMAIN, 4)
    rt, _ = build_rtree(segs, 2, 8)
    rng = np.random.default_rng(5)
    mid = (segs[:, :2] + segs[:, 2:]) / 2
    c = mid[rng.integers(0, len(segs), 48)]
    rects = np.hstack([c - 24.0, c + 24.0])
    return segs, pmr, rt, rects


class TestDuplicateDeletion:
    """Candidates pass one duplicate deletion before the exact test."""

    def test_heavy_cloning_window_batch_matches_scalar_and_brute(self, cloned):
        segs, pmr, rt, rects = cloned
        assert pmr.q_edge_count > 20 * len(segs)      # heavy q-edge cloning
        for tree, batch in ((pmr, batch_window_query_quadtree),
                            (rt, batch_window_query_rtree)):
            got = batch(tree, rects)
            assert len(got) == len(rects)
            for ids, r in zip(got, rects):
                assert ids.dtype == np.int64
                assert np.all(np.diff(ids) > 0)        # ascending, no repeats
                assert np.array_equal(ids, np.unique(tree.window_query(r)))
                assert np.array_equal(ids, brute_window_query(segs, r))

    @pytest.mark.parametrize("exact", [True, False])
    def test_candidate_semantics_follow_the_scalar_filter(self, cloned, exact):
        _, pmr, rt, rects = cloned
        for tree, batch in ((pmr, batch_window_query_quadtree),
                            (rt, batch_window_query_rtree)):
            for ids, r in zip(batch(tree, rects, exact=exact), rects):
                want = np.unique(tree.window_query(r, exact=exact))
                assert ids.dtype == np.int64
                assert np.array_equal(ids, want)

    def test_inexact_is_a_superset_of_exact(self, cloned):
        _, pmr, _, rects = cloned
        loose = batch_window_query_quadtree(pmr, rects, exact=False)
        tight = batch_window_query_quadtree(pmr, rects)
        assert sum(a.size for a in loose) > sum(a.size for a in tight)
        for a, b in zip(loose, tight):
            assert np.isin(b, a).all()

    def test_empty_and_all_miss_batches(self, cloned):
        _, pmr, rt, _ = cloned
        miss = np.array([[600.0, 600.0, 700.0, 700.0],
                         [-50.0, -50.0, -10.0, -10.0]])
        for tree, batch in ((pmr, batch_window_query_quadtree),
                            (rt, batch_window_query_rtree)):
            assert batch(tree, np.zeros((0, 4))) == []
            for exact in (True, False):
                got = batch(tree, miss, exact=exact)
                assert len(got) == 2
                assert all(g.size == 0 and g.dtype == np.int64 for g in got)

    def test_scan_model_steps_are_pinned(self, cloned):
        """Dedup and packing are bookkeeping, not scan-model rounds: the
        step counts of a fixed seeded batch stay where they were."""
        _, pmr, rt, rects = cloned
        pts = np.random.default_rng(6).uniform(0, DOMAIN, (32, 2))
        cases = [
            (batch_window_query_quadtree, pmr, rects,
             21.0, {"elementwise": 11, "permute": 10}),
            (batch_window_query_rtree, rt, rects,
             11.0, {"elementwise": 7, "permute": 4}),
            (batch_nearest_quadtree, pmr, pts,
             45.0, {"elementwise": 18, "permute": 9, "scan": 18}),
            (batch_nearest_rtree, rt, pts,
             16.0, {"elementwise": 7, "permute": 4, "scan": 5}),
        ]
        for batch, tree, payload, steps, counts in cases:
            m = Machine()
            batch(tree, payload, machine=m)
            assert (m.steps, m.counts) == (steps, counts), batch.__name__


def _old_children(parent, nodes):
    """The per-batch expansion the kernels used to run: stable argsort
    of the parent pointers, then two searchsorted calls."""
    order = np.argsort(parent, kind="stable")
    lo = np.searchsorted(parent[order], nodes, side="left")
    hi = np.searchsorted(parent[order], nodes, side="right")
    return [order[a:b] for a, b in zip(lo, hi)]


def _old_subtree_counts(tree):
    counts = np.diff(tree.node_ptr).astype(np.int64)
    for lev in range(int(tree.level.max(initial=0)), 0, -1):
        sel = np.flatnonzero(tree.level == lev)
        np.add.at(counts, tree.parent[sel], counts[sel])
    return counts


class TestDerivedIndexes:
    """``child_csr``/``leaf_csr``/``subtree_counts`` are derived lazily
    per tree instance and equal the old per-batch derivation -- on built
    trees, ``io``-loaded trees and shared-memory payload trees."""

    @staticmethod
    def _copies(tree, tmp_path):
        path = str(tmp_path / f"{type(tree).__name__}.npz")
        save_structure(tree, path)
        return [tree, load_structure(path),
                payload_to_tree(structure_payload(tree))]

    def _check_rtree(self, rt):
        for lvl, par in enumerate(rt.level_parent):
            order, ptr = rt.child_csr[lvl]
            nodes = np.arange(rt.level_mbr[lvl + 1].shape[0])
            want = _old_children(par, nodes)
            assert [order[ptr[j]:ptr[j + 1]].tolist() for j in nodes] \
                == [w.tolist() for w in want]
        order, ptr = rt.leaf_csr
        leaves = np.arange(rt.num_leaves)
        want = _old_children(rt.line_leaf, leaves)
        assert [order[ptr[j]:ptr[j + 1]].tolist() for j in leaves] \
            == [w.tolist() for w in want]

    def test_rtree_child_indexes(self, cloned, tmp_path):
        _, _, rt, _ = cloned
        for tree in self._copies(rt, tmp_path):
            self._check_rtree(tree)
        small, _ = build_rtree(random_segments(3, DOMAIN, 48, seed=1), 1, 4)
        self._check_rtree(small)                  # single-leaf tree

    def test_quadtree_subtree_counts(self, cloned, tmp_path):
        _, pmr, _, _ = cloned
        for tree in self._copies(pmr, tmp_path):
            assert np.array_equal(tree.subtree_counts,
                                  _old_subtree_counts(tree))

    def test_derived_once_and_never_serialised(self, cloned):
        _, pmr, rt, _ = cloned
        for tree, names in ((rt, ("child_csr", "leaf_csr")),
                            (pmr, ("subtree_counts",))):
            fresh = type(tree)(**{f: getattr(tree, f)
                                  for f in tree.__dataclass_fields__})
            before = structure_payload(fresh)
            for name in names:
                assert getattr(fresh, name) is getattr(fresh, name)
            after = structure_payload(fresh)
            assert sorted(before) == sorted(after)
            assert payload_checksum(before) == payload_checksum(after)
