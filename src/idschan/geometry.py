"""Angle conventions and axis-aligned geometry primitives used by the tracer."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


def wrap_azimuth_deg(angle):
    """Wrap an angle in degrees into the half-open interval (-180, 180]."""
    a = np.asarray(angle, dtype=float)
    out = (a + 180.0) % 360.0 - 180.0
    out = np.where(out == -180.0, 180.0, out)
    return float(out) if out.ndim == 0 else out


def fold_elevation_deg(angle):
    """Fold an angle in degrees into [-90, 90], reflecting at the poles."""
    a = np.asarray(angle, dtype=float)
    w = (a + 180.0) % 360.0 - 180.0
    out = np.where(w > 90.0, 180.0 - w, w)
    out = np.where(w < -90.0, -180.0 - w, out)
    return float(out) if out.ndim == 0 else out


def spherical_angles_deg(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth/elevation in degrees of direction vectors (..., 3).

    Azimuth is atan2(y, x) in (-180, 180]; elevation is asin(z/r) in [-90, 90].
    """
    v = np.asarray(vec, dtype=float)
    r = np.linalg.norm(v, axis=-1)
    az = np.degrees(np.arctan2(v[..., 1], v[..., 0]))
    az = np.where(az <= -180.0, 180.0, az)
    with np.errstate(invalid="ignore", divide="ignore"):
        el = np.degrees(np.arcsin(np.clip(v[..., 2] / r, -1.0, 1.0)))
    return az, el


def mirror_point(point: np.ndarray, axis: int, plane_coord: float) -> np.ndarray:
    """Mirror a 3-vector across the axis-aligned plane x[axis] = plane_coord."""
    out = np.array(point, dtype=float)
    out[axis] = 2.0 * plane_coord - out[axis]
    return out


# A direction component at or below this magnitude counts as parallel to its
# slab; it also stands in for such components as a divisor, so no division is
# by zero.
PARALLEL_EPS = 1e-300
# Margin of the open segment parameter window of the slab test (see segments_hit_boxes).
SEGMENT_EPS = 1e-9
# The open window as closed bounds on the slab test's accumulators: for floats,
# t > SEGMENT_EPS iff t >= _T_LO, and t < 1 - SEGMENT_EPS iff t <= _T_HI.
_T_LO = np.nextafter(SEGMENT_EPS, np.inf)
_T_HI = np.nextafter(1.0 - SEGMENT_EPS, -np.inf)


class AxisGroup(NamedTuple):
    """Axes on which K boxes map to their distinct (min, max) pairs alike.

    ``bmin``/``bmax`` (len(axes), U, 1) hold the U distinct pairs of each of
    ``axes``, in order of first appearance among the boxes; box i has pair
    ``index[i]`` on every axis of the group. ``index`` is None when U is 1 or
    K, where the pairs broadcast or are the boxes in order.
    """

    axes: tuple[int, ...]
    bmin: np.ndarray
    bmax: np.ndarray
    index: np.ndarray | None


def _axis_groups(bmin: np.ndarray, bmax: np.ndarray) -> tuple[AxisGroup, ...]:
    """The distinct bound pairs of K boxes (3, K, 1), grouped by their box->pair
    map and ordered by pair count. Pairs compare bit for bit."""
    k = bmin.shape[1]
    groups = {}  # box->pair map bytes -> (map, first box of each pair, axes)
    for a in range(3):
        pairs = np.stack([bmin[a, :, 0], bmax[a, :, 0]], axis=1).view(np.int64)
        _, first, inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        index = rank[inverse.reshape(-1)]
        groups.setdefault(index.tobytes(), (index, np.sort(first), []))[2].append(a)
    return tuple(
        AxisGroup(tuple(axes), bmin[axes][:, first], bmax[axes][:, first], None if first.size in (1, k) else index)
        for index, first, axes in sorted(groups.values(), key=lambda g: g[1].size)
    )


@dataclass(frozen=True)
class BoxClusters:
    """Boxes grouped for the broad phase of ``segments_hit_boxes``.

    ``union_groups`` holds the union box of each cluster and
    ``member_groups[c]`` the boxes of cluster c, each as every axis's
    distinct (min, max) pairs (``AxisGroup``), which the slab test runs on;
    ``sizes[c]`` is the number of boxes in cluster c.
    """

    union_groups: tuple[AxisGroup, ...]
    member_groups: tuple[tuple[AxisGroup, ...], ...]
    sizes: tuple[int, ...]


def box_clusters(box_min: np.ndarray, box_max: np.ndarray) -> BoxClusters:
    """Sort M >= 1 boxes (M, 3) by x-centre and split them into isqrt(M) clusters.

    Each axis's distinct (min, max) pairs are recorded once for the union
    boxes and once per cluster, with a map from each box to its pair; boxes
    that share bounds, like the seats and passengers of one seat row, then
    share one slab interval per segment. Build once per scene and pass to
    every ``segments_hit_boxes`` call.
    """
    box_min = np.asarray(box_min, dtype=float).reshape(-1, 3)
    box_max = np.asarray(box_max, dtype=float).reshape(-1, 3)
    order = np.argsort(box_min[:, 0] + box_max[:, 0], kind="stable")
    members = tuple(
        (box_min[idx].T[:, :, None], box_max[idx].T[:, :, None])
        for idx in np.array_split(order, math.isqrt(order.size))
    )
    lo = np.stack([bmin.min(axis=1) for bmin, _ in members], axis=1)
    hi = np.stack([bmax.max(axis=1) for _, bmax in members], axis=1)
    return BoxClusters(_axis_groups(lo, hi), tuple(_axis_groups(*m) for m in members),
                       tuple(bmin.shape[1] for bmin, _ in members))


def _slab_hits(p0, d_safe, parallel, groups, k):
    """Slab test of N segments p0 + t*d against K boxes given as ``AxisGroup``s.

    p0, d_safe: (3, N), axis first; ``parallel`` maps each axis on which some
    segment is parallel to the slabs to its (N,) mask. Each axis's interval
    is computed once per distinct bound pair, (U, N), and the axes of a group
    are combined before their pairs are mapped back to the K boxes. Returns
    the (K, N) hit matrix, read-only when every group broadcasts.
    """
    tmin, tmax = _T_LO, _T_HI  # max and min are exact, so the window folds in anywhere
    with np.errstate(divide="ignore", over="ignore"):
        for axes, bmin, bmax, index in groups:  # fewest pairs first: the window folds into the smallest arrays
            glo = ghi = None
            for i, a in enumerate(axes):
                p = p0[a]
                t1 = bmin[i] - p
                t1 /= d_safe[a]
                t2 = bmax[i] - p
                t2 /= d_safe[a]
                lo = np.minimum(t1, t2)
                hi = np.maximum(t1, t2, out=t1)
                cols = np.flatnonzero(parallel[a]) if a in parallel else ()
                if len(cols):
                    p = p[cols]
                    inside = (bmin[i] < p) & (p < bmax[i])
                    lo[:, cols] = np.where(inside, -np.inf, np.inf)
                    hi[:, cols] = np.where(inside, np.inf, -np.inf)
                if glo is None:
                    glo, ghi = lo, hi
                else:
                    np.maximum(glo, lo, out=glo)
                    np.minimum(ghi, hi, out=ghi)
            if index is not None:
                glo, ghi = glo[index], ghi[index]
            # groups come in rising pair count, so glo's shape covers the accumulators'
            tmin = np.maximum(glo, tmin, out=glo)
            tmax = np.minimum(ghi, tmax, out=ghi)
    hits = tmin <= tmax
    return hits if len(hits) == k else np.broadcast_to(hits, (k, hits.shape[1]))


def segments_hit_boxes(
    p0: np.ndarray,
    p1: np.ndarray,
    box_min: np.ndarray,
    box_max: np.ndarray,
    clusters: BoxClusters | None = None,
) -> np.ndarray:
    """Whether each segment p0[i]->p1[i] passes through any of the boxes.

    Slab test (Williams et al., JGT 2005) on the open parameter interval
    (SEGMENT_EPS, 1 - SEGMENT_EPS): on each axis with direction component d, the segment's
    parameter interval within the box is [(bmin - p0) / d, (bmax - p0) / d],
    and a segment hits a box when the three intervals overlap inside that
    window. On an axis with |d| <= PARALLEL_EPS the segment is inside the
    slab only if bmin < p0 < bmax, so a segment lying in a face plane does
    not hit. Touching a box surface is therefore not a hit, except where the
    segment crosses exactly through an edge or corner.

    The window enters as the closed bounds nextafter(SEGMENT_EPS, inf) and
    nextafter(1 - SEGMENT_EPS, -inf) on the running interval, which is exact:
    the numerators are finite and the divisors finite and nonzero, so no
    interval end is NaN. Each axis's interval is computed once per distinct
    (min, max) pair of the boxes (``box_clusters``), so boxes that share
    bounds on an axis share that work; max and min are exact, so the hits are
    those of the per-box test.

    Broad phase (Kay & Kajiya, SIGGRAPH 1986): each segment is tested first
    against the union box of each cluster (``box_clusters``), then exactly
    against the boxes of the clusters it hits. Rounded subtraction and
    division are monotone, so a union box's interval contains each member's
    and the cull never drops a hit. Pass ``clusters`` built from the same
    boxes to reuse them across calls.

    Shapes: p0/p1 (S, 3), box_min/box_max (M, 3); returns bool (S,).
    """
    # axis first, so each per-axis row of the slab test is contiguous
    p0 = np.ascontiguousarray(np.atleast_2d(np.asarray(p0, dtype=float)).T)
    p1 = np.atleast_2d(np.asarray(p1, dtype=float)).T
    hit = np.zeros(p0.shape[1], dtype=bool)
    if box_min.size == 0:
        return hit
    if clusters is None:
        clusters = box_clusters(box_min, box_max)
    d = p1 - p0
    parallel = np.abs(d) <= PARALLEL_EPS
    d_safe = np.where(parallel, PARALLEL_EPS, d)
    parallel = {a: parallel[a] for a in range(3) if parallel[a].any()}
    broad = _slab_hits(p0, d_safe, parallel, clusters.union_groups, len(clusters.sizes))
    for crosses, size, groups in zip(broad, clusters.sizes, clusters.member_groups):
        seg = np.flatnonzero(crosses & ~hit)  # a segment already hit needs no more tests
        if seg.size:
            narrow = _slab_hits(p0[:, seg], d_safe[:, seg], {a: row[seg] for a, row in parallel.items()},
                                groups, size)
            hit[seg[narrow.any(axis=0)]] = True
    return hit
