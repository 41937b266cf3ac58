"""Angle conventions and axis-aligned geometry primitives used by the tracer."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BoxClusters:
    """Boxes grouped for the broad phase of ``segments_hit_boxes``.

    ``lo``/``hi`` (3, C, 1) are the union box of each cluster and
    ``members[c]`` the (min, max) faces of cluster c's boxes, each (3, K_c, 1);
    both are indexed by axis first.
    """

    lo: np.ndarray
    hi: np.ndarray
    members: tuple[tuple[np.ndarray, np.ndarray], ...]


def box_clusters(box_min: np.ndarray, box_max: np.ndarray) -> BoxClusters:
    """Sort M >= 1 boxes (M, 3) by x-centre and split them into isqrt(M) clusters.

    Build once per scene and pass to every ``segments_hit_boxes`` call.
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
    return BoxClusters(lo, hi, members)


def _slab_hits(p0, d_safe, parallel, bmin, bmax):
    """Slab test of N segments p0 + t*d against K boxes, one axis at a time.

    p0, d_safe, parallel: (3, N); bmin, bmax: (3, K, 1); all axis first.
    Returns the (K, N) hit matrix.
    """
    tmin = tmax = None
    for a in range(3):
        p = p0[a]
        with np.errstate(divide="ignore", over="ignore"):
            t1 = bmin[a] - p
            t1 /= d_safe[a]
            t2 = bmax[a] - p
            t2 /= d_safe[a]
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2, out=t1)
        cols = np.flatnonzero(parallel[a])
        if cols.size:
            p = p[cols]
            inside = (bmin[a] < p) & (p < bmax[a])
            lo[:, cols] = np.where(inside, -np.inf, np.inf)
            hi[:, cols] = np.where(inside, np.inf, -np.inf)
        if tmin is None:
            tmin, tmax = lo, hi
        else:
            np.maximum(tmin, lo, out=tmin)
            np.minimum(tmax, hi, out=tmax)
    return (tmax >= tmin) & (tmax > SEGMENT_EPS) & (tmin < 1.0 - SEGMENT_EPS)


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
    broad = _slab_hits(p0, d_safe, parallel, clusters.lo, clusters.hi)
    for crosses, (bmin, bmax) in zip(broad, clusters.members):
        seg = np.flatnonzero(crosses & ~hit)  # a segment already hit needs no more tests
        if seg.size:
            narrow = _slab_hits(p0[:, seg], d_safe[:, seg], parallel[:, seg], bmin, bmax)
            hit[seg[narrow.any(axis=0)]] = True
    return hit

