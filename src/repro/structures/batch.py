"""Data-parallel batch query processing.

The companion papers ([Hoel94b]'s "performance of data-parallel spatial
operations") process query *sets*, not single probes: one processor per
(query, node) pair, expanding level-synchronously.  This module provides
that style of bulk evaluation for the window query on both tree
families:

* the frontier is a vector of (query id, node id) pairs;
* each round every pair tests its query window against its node's
  rectangle in one whole-array step and expands into children;
* at the leaves, candidate (query, line) pairs pass one duplicate
  deletion (the paper's Section 4.3 primitive: sort fused keys, drop
  each key equal to its left neighbour) and then one vectorised exact
  test, so q-edge clones are tested once, not once per leaf.

Per-tree invariants the expansion needs (R-tree child indexes,
quadtree subtree occupancy) are derived lazily once per tree instance
(:attr:`RTree.child_csr`, :attr:`Quadtree.subtree_counts`), not per
batch.

Results are identical to looping the scalar ``window_query`` (a test
invariant) but the work is whole-array per tree level -- O(height)
vector steps for any number of queries.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..geometry.clip import segments_intersect_rects
from ..geometry.distance import (
    points_rects_distance,
    points_rects_max_distance,
    points_segments_distance,
)
from ..geometry.rect import contains_point_halfopen, overlaps, validate_rects
from ..machine import Machine, get_machine
from .quadblock import Quadtree
from .rtree import RTree

__all__ = [
    "batch_window_query_quadtree",
    "batch_window_query_rtree",
    "batch_point_query_quadtree",
    "batch_point_query_rtree",
    "batch_nearest_quadtree",
    "batch_nearest_rtree",
]


def _unique_pairs(qid: np.ndarray, lid: np.ndarray, num_lines: int):
    """Duplicate deletion (paper Section 4.3) on (query, line) pairs.

    Fuses each pair into one int64 key ``qid * num_lines + lid``, sorts
    the keys, keeps every key that differs from its left neighbour and
    splits the survivors back -- ordered by query, then line id.  PMR
    q-edge cloning reaches a line through every leaf it crosses, so this
    runs *before* the exact test, which then sees each pair once.
    """
    width = max(int(num_lines), 1)
    key = qid.astype(np.int64, copy=False) * width + lid
    key.sort()
    keep = np.empty(key.size, dtype=bool)
    keep[:1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return np.divmod(key[keep], width)


def _pack_results(qid: np.ndarray, lid: np.ndarray, num_queries: int
                  ) -> List[np.ndarray]:
    """Split sorted, duplicate-free (query, line) pairs per query."""
    if num_queries == 0:
        return []
    return np.split(lid, np.searchsorted(qid, np.arange(1, num_queries)))


def _expand_csr(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices ``[starts[i] .. starts[i]+counts[i])`` concatenated.

    The gather pattern every frontier expansion shares: one output slot
    per (pair, child) combination, computed with whole-array ops only.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _expand_children(csr, q: np.ndarray, n: np.ndarray):
    """Expand (query, node) pairs into (query, child) pairs via a CSR
    ``(order, ptr)``: node ``n``'s children are ``order[ptr[n]:ptr[n+1]]``."""
    order, ptr = csr
    starts = ptr[n]
    counts = ptr[n + 1] - starts
    return np.repeat(q, counts), order[_expand_csr(starts, counts)]


def _leaf_pairs(tree: Quadtree, leaf_q: np.ndarray, leaf_n: np.ndarray):
    """Candidate (query, line) pairs from the lines stored at each leaf."""
    return _expand_children((tree.node_lines, tree.node_ptr), leaf_q, leaf_n)


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def batch_window_query_quadtree(tree: Quadtree, rects, exact: bool = True,
                                machine: Optional[Machine] = None
                                ) -> List[np.ndarray]:
    """All window queries against a quadtree in O(height) vector rounds."""
    rects = validate_rects(np.asarray(rects, dtype=float).reshape(-1, 4))
    m = machine or get_machine()
    nq = rects.shape[0]

    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    while q_frontier.size:
        node_boxes = tree.boxes[n_frontier]
        m.record("elementwise", q_frontier.size)
        alive = overlaps(node_boxes, rects[q_frontier])
        q_frontier = q_frontier[alive]
        n_frontier = n_frontier[alive]
        if not q_frontier.size:
            break
        is_leaf = tree.children[n_frontier, 0] < 0
        # leaves: emit candidate (query, line) pairs
        leaf_q = q_frontier[is_leaf]
        leaf_n = n_frontier[is_leaf]
        if leaf_q.size:
            qid, lid = _leaf_pairs(tree, leaf_q, leaf_n)
            hit_q.append(qid)
            hit_l.append(lid)
        # internal: expand into all four children
        int_q = q_frontier[~is_leaf]
        int_n = n_frontier[~is_leaf]
        m.record("permute", int_q.size * 4)
        q_frontier = np.repeat(int_q, 4)
        n_frontier = tree.children[int_n].reshape(-1)

    qid, lid = _unique_pairs(_concat(hit_q), _concat(hit_l),
                             tree.lines.shape[0])
    if exact and qid.size:
        m.record("elementwise", qid.size)
        keep = segments_intersect_rects(tree.lines[lid], rects[qid])
        qid = qid[keep]
        lid = lid[keep]
    # exact=False returns every candidate from the reached leaves,
    # matching the scalar window_query's filter-step semantics.
    return _pack_results(qid, lid, nq)


def batch_window_query_rtree(tree: RTree, rects, exact: bool = True,
                             machine: Optional[Machine] = None
                             ) -> List[np.ndarray]:
    """All window queries against an R-tree in O(height) vector rounds."""
    rects = validate_rects(np.asarray(rects, dtype=float).reshape(-1, 4))
    m = machine or get_machine()
    nq = rects.shape[0]
    top = tree.height - 1

    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    for level in range(top, 0, -1):
        m.record("elementwise", q_frontier.size)
        alive = overlaps(tree.level_mbr[level][n_frontier], rects[q_frontier])
        q_frontier = q_frontier[alive]
        n_frontier = n_frontier[alive]
        if not q_frontier.size:
            break
        # expand to the children of every surviving node
        q_frontier, n_frontier = _expand_children(
            tree.child_csr[level - 1], q_frontier, n_frontier)
        m.record("permute", q_frontier.size)

    if not q_frontier.size:
        return [np.zeros(0, dtype=np.int64) for _ in range(nq)]
    # leaf level: test the surviving (query, leaf) pairs, then entries
    m.record("elementwise", q_frontier.size)
    alive = overlaps(tree.level_mbr[0][n_frontier], rects[q_frontier])
    q_frontier = q_frontier[alive]
    n_frontier = n_frontier[alive]
    if not q_frontier.size:
        return [np.zeros(0, dtype=np.int64) for _ in range(nq)]

    qid, lid = _expand_children(tree.leaf_csr, q_frontier, n_frontier)
    if qid.size:
        m.record("elementwise", qid.size)
        keep = overlaps(tree.entry_bbox[lid], rects[qid])
        qid = qid[keep]
        lid = lid[keep]
    if exact and qid.size:
        m.record("elementwise", qid.size)
        keep = segments_intersect_rects(tree.lines[lid], rects[qid])
        qid = qid[keep]
        lid = lid[keep]
    # R-tree pairs are already unique (one leaf per line); this sorts them
    return _pack_results(*_unique_pairs(qid, lid, tree.lines.shape[0]), nq)


# -- point probes ---------------------------------------------------------


def batch_point_query_quadtree(tree: Quadtree, points, strict: bool = True,
                               machine: Optional[Machine] = None
                               ) -> List[np.ndarray]:
    """All point queries against a quadtree in O(height) vector rounds.

    Each query descends to the unique leaf containing its point
    (half-open block membership, as in :meth:`Quadtree.find_leaf`) and
    returns the ids of the lines stored there.  With ``strict`` a point
    outside the domain raises :class:`ValueError` like the scalar query;
    otherwise it yields an empty result.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = machine or get_machine()
    nq = pts.shape[0]
    if nq == 0:
        return []
    m.record("elementwise", nq)
    inside = contains_point_halfopen(np.broadcast_to(tree.boxes[0], (nq, 4)),
                                     pts[:, 0], pts[:, 1], tree.domain)
    if strict and not inside.all():
        raise ValueError(f"{int((~inside).sum())} point(s) outside the domain")
    q_frontier = np.flatnonzero(inside).astype(np.int64)
    n_frontier = np.zeros(q_frontier.size, dtype=np.int64)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    while q_frontier.size:
        is_leaf = tree.children[n_frontier, 0] < 0
        leaf_q = q_frontier[is_leaf]
        if leaf_q.size:
            qid, lid = _leaf_pairs(tree, leaf_q, n_frontier[is_leaf])
            hit_q.append(qid)
            hit_l.append(lid)
        int_q = q_frontier[~is_leaf]
        int_n = n_frontier[~is_leaf]
        if not int_q.size:
            break
        # expand into all four children, keep the one holding the point
        m.record("permute", int_q.size * 4)
        cq = np.repeat(int_q, 4)
        cn = tree.children[int_n].reshape(-1)
        m.record("elementwise", cq.size)
        keep = contains_point_halfopen(tree.boxes[cn], pts[cq, 0], pts[cq, 1],
                                       tree.domain)
        q_frontier = cq[keep]
        n_frontier = cn[keep]
    return _pack_results(*_unique_pairs(_concat(hit_q), _concat(hit_l),
                                        tree.lines.shape[0]), nq)


def batch_point_query_rtree(tree: RTree, points, exact: bool = True,
                            machine: Optional[Machine] = None
                            ) -> List[np.ndarray]:
    """All point queries against an R-tree, as degenerate window queries.

    Mirrors :meth:`RTree.point_query`, which delegates to
    ``window_query`` on the rectangle ``[px, py, px, py]``.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return []
    rects = np.column_stack([pts[:, 0], pts[:, 1], pts[:, 0], pts[:, 1]])
    return batch_window_query_rtree(tree, rects, exact=exact, machine=machine)


# -- nearest probes -------------------------------------------------------


def _reduce_nearest(qid: np.ndarray, lid: np.ndarray, dist: np.ndarray,
                    nq: int) -> List[Optional[tuple]]:
    """Per-query ``(line id, distance)`` minimising distance then id.

    Keeps the pairs at their query's minimum distance, then one lexsort
    by (query, id): the first pair of each query's group is its answer.
    """
    best = np.full(nq, np.inf)
    np.minimum.at(best, qid, dist)
    at_best = dist <= best[qid]
    qid = qid[at_best]
    lid = lid[at_best]
    order = np.lexsort((lid, qid))
    qid = qid[order]
    first = np.ones(qid.size, dtype=bool)
    np.not_equal(qid[1:], qid[:-1], out=first[1:])
    best_l = np.full(nq, -1, dtype=np.int64)
    best_l[qid[first]] = lid[order][first]
    return [(l, d) if l >= 0 else None
            for l, d in zip(best_l.tolist(), best.tolist())]


def batch_nearest_quadtree(tree: Quadtree, points,
                           machine: Optional[Machine] = None) -> List[tuple]:
    """All nearest-line queries against a quadtree, level-synchronously.

    The batched branch-and-bound analogue of
    :func:`repro.structures.nearest.quadtree_nearest`: the frontier is a
    vector of (query, node) pairs; each round prunes pairs whose block
    lies farther than the query's current upper bound (min-max corner
    distance over non-empty subtrees, tightened by exact distances at
    reached leaves) and expands survivors into their non-empty children.
    Returns ``(line id, distance)`` per query -- identical, ties
    included, to the scalar search.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = machine or get_machine()
    nq = pts.shape[0]
    if nq == 0:
        return []
    if tree.lines.shape[0] == 0:
        raise ValueError("empty tree has no nearest line")
    occupancy = tree.subtree_counts
    bound = np.full(nq, np.inf)
    hit_q: List[np.ndarray] = []
    hit_l: List[np.ndarray] = []
    hit_d: List[np.ndarray] = []
    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    while q_frontier.size:
        # prune: a block farther than the query's bound cannot help
        m.record("elementwise", q_frontier.size)
        lb = points_rects_distance(pts[q_frontier], tree.boxes[n_frontier])
        ub = points_rects_max_distance(pts[q_frontier], tree.boxes[n_frontier])
        m.record("scan", q_frontier.size)
        np.minimum.at(bound, q_frontier, ub)
        alive = lb <= bound[q_frontier]
        q_frontier = q_frontier[alive]
        n_frontier = n_frontier[alive]
        if not q_frontier.size:
            break
        is_leaf = tree.children[n_frontier, 0] < 0
        leaf_q = q_frontier[is_leaf]
        if leaf_q.size:
            qid, lid = _leaf_pairs(tree, leaf_q, n_frontier[is_leaf])
            if qid.size:
                m.record("elementwise", qid.size)
                d = points_segments_distance(pts[qid], tree.lines[lid])
                m.record("scan", qid.size)
                np.minimum.at(bound, qid, d)
                hit_q.append(qid)
                hit_l.append(lid)
                hit_d.append(d)
        int_q = q_frontier[~is_leaf]
        int_n = n_frontier[~is_leaf]
        if not int_q.size:
            break
        # expand into the non-empty children only
        m.record("permute", int_q.size * 4)
        cq = np.repeat(int_q, 4)
        cn = tree.children[int_n].reshape(-1)
        nonempty = occupancy[cn] > 0
        q_frontier = cq[nonempty]
        n_frontier = cn[nonempty]
    dist = np.concatenate(hit_d) if hit_d else np.zeros(0)
    out = _reduce_nearest(_concat(hit_q), _concat(hit_l), dist, nq)
    assert all(r is not None for r in out), "non-empty tree must answer"
    return out  # type: ignore[return-value]


def batch_nearest_rtree(tree: RTree, points,
                        machine: Optional[Machine] = None) -> List[tuple]:
    """All nearest-line queries against an R-tree, level-synchronously.

    Same frontier scheme as :func:`batch_nearest_quadtree`; every R-tree
    node is non-empty by construction, so the min-max corner distance of
    each visited rectangle is always a valid upper bound.  Returns
    ``(line id, distance)`` per query, identical to the scalar search.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = machine or get_machine()
    nq = pts.shape[0]
    if nq == 0:
        return []
    if tree.lines.shape[0] == 0:
        raise ValueError("empty tree has no nearest line")
    top = tree.height - 1
    bound = np.full(nq, np.inf)
    q_frontier = np.arange(nq, dtype=np.int64)
    n_frontier = np.zeros(nq, dtype=np.int64)
    for level in range(top, 0, -1):
        boxes = tree.level_mbr[level][n_frontier]
        m.record("elementwise", q_frontier.size)
        lb = points_rects_distance(pts[q_frontier], boxes)
        ub = points_rects_max_distance(pts[q_frontier], boxes)
        m.record("scan", q_frontier.size)
        np.minimum.at(bound, q_frontier, ub)
        alive = lb <= bound[q_frontier]
        q_frontier = q_frontier[alive]
        n_frontier = n_frontier[alive]
        if not q_frontier.size:
            break
        q_frontier, n_frontier = _expand_children(
            tree.child_csr[level - 1], q_frontier, n_frontier)
        m.record("permute", q_frontier.size)
    if not q_frontier.size:  # pragma: no cover - non-empty trees always reach leaves
        raise ValueError("tree holds no lines")
    # leaf level: prune leaves, then their entries, then exact distances
    m.record("elementwise", q_frontier.size)
    boxes = tree.level_mbr[0][n_frontier]
    lb = points_rects_distance(pts[q_frontier], boxes)
    ub = points_rects_max_distance(pts[q_frontier], boxes)
    m.record("scan", q_frontier.size)
    np.minimum.at(bound, q_frontier, ub)
    alive = lb <= bound[q_frontier]
    q_frontier = q_frontier[alive]
    n_frontier = n_frontier[alive]

    qid, lid = _expand_children(tree.leaf_csr, q_frontier, n_frontier)
    if qid.size:
        m.record("elementwise", qid.size)
        entry_lb = points_rects_distance(pts[qid], tree.entry_bbox[lid])
        keep = entry_lb <= bound[qid]
        qid = qid[keep]
        lid = lid[keep]
    if qid.size:
        m.record("elementwise", qid.size)
        dist = points_segments_distance(pts[qid], tree.lines[lid])
    else:  # pragma: no cover - some entry always survives its own bound
        dist = np.zeros(0)
    out = _reduce_nearest(qid, lid, dist, nq)
    assert all(r is not None for r in out), "non-empty tree must answer"
    return out  # type: ignore[return-value]
