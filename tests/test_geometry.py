import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idschan.geometry import (
    PARALLEL_EPS,
    SEGMENT_EPS,
    box_clusters,
    fold_elevation_deg,
    segments_hit_boxes,
    spherical_angles_deg,
    wrap_azimuth_deg,
)


class TestAngleWrapping:
    @given(st.floats(-1e6, 1e6))
    def test_azimuth_range_half_open(self, a):
        w = wrap_azimuth_deg(a)
        assert -180.0 < w <= 180.0

    def test_azimuth_seam(self):
        assert wrap_azimuth_deg(180.0) == 180.0
        assert wrap_azimuth_deg(-180.0) == 180.0
        assert wrap_azimuth_deg(540.0) == 180.0
        assert math.isclose(wrap_azimuth_deg(-190.0), 170.0)

    @given(st.floats(-1e4, 1e4))
    def test_elevation_range_closed(self, a):
        f = fold_elevation_deg(a)
        assert -90.0 <= f <= 90.0

    def test_elevation_folding(self):
        assert fold_elevation_deg(90.0) == 90.0
        assert math.isclose(fold_elevation_deg(100.0), 80.0)
        assert math.isclose(fold_elevation_deg(-100.0), -80.0)
        assert math.isclose(fold_elevation_deg(185.0), -5.0)
        assert fold_elevation_deg(0.0) == 0.0

    @given(st.floats(-89.9, 89.9))
    def test_elevation_identity_inside_domain(self, a):
        assert math.isclose(fold_elevation_deg(a), a, abs_tol=1e-12)


class TestSphericalAngles:
    def test_cardinal_directions(self):
        az, el = spherical_angles_deg(np.array([1.0, 0.0, 0.0]))
        assert az == 0.0 and el == 0.0
        az, el = spherical_angles_deg(np.array([0.0, 1.0, 0.0]))
        assert math.isclose(az, 90.0)
        az, el = spherical_angles_deg(np.array([-1.0, 0.0, 0.0]))
        assert az == 180.0  # seam maps to +180
        az, el = spherical_angles_deg(np.array([0.0, 0.0, 2.0]))
        assert math.isclose(el, 90.0)

    def test_negative_zero_y_maps_to_plus_180(self):
        az, _ = spherical_angles_deg(np.array([-1.0, -0.0, 0.0]))
        assert az == 180.0


class TestSegmentBoxHits:
    BMIN = np.array([[1.0, 1.0, 1.0]])
    BMAX = np.array([[2.0, 2.0, 2.0]])

    def hit(self, p0, p1):
        return bool(segments_hit_boxes(np.array([p0]), np.array([p1]), self.BMIN, self.BMAX)[0])

    def test_through_center(self):
        assert self.hit((0.0, 1.5, 1.5), (3.0, 1.5, 1.5))

    def test_miss_beside(self):
        assert not self.hit((0.0, 3.0, 1.5), (3.0, 3.0, 1.5))

    def test_stops_before_box(self):
        assert not self.hit((0.0, 1.5, 1.5), (0.9, 1.5, 1.5))

    def test_starts_after_box(self):
        assert not self.hit((2.1, 1.5, 1.5), (3.0, 1.5, 1.5))

    def test_axis_parallel_inside_slab(self):
        assert self.hit((1.5, 0.0, 1.5), (1.5, 3.0, 1.5))

    def test_endpoint_touching_surface_not_a_hit(self):
        assert not self.hit((0.0, 1.5, 1.5), (1.0, 1.5, 1.5))

    def test_diagonal_corner_clip(self):
        assert self.hit((0.5, 0.5, 1.5), (2.5, 2.5, 1.5))

    def test_segment_in_face_plane_is_not_a_hit(self):
        # lying in the min or the max face plane of an axis is touching, not a hit
        assert not self.hit((0.0, 1.0, 1.5), (3.0, 1.0, 1.5))
        assert not self.hit((0.0, 2.0, 1.5), (3.0, 2.0, 1.5))
        assert not self.hit((1.5, 0.0, 1.0), (1.5, 3.0, 1.0))
        assert not self.hit((1.5, 0.0, 2.0), (1.5, 3.0, 2.0))
        assert not self.hit((1.0, 1.5, 0.0), (1.0, 1.5, 3.0))
        assert not self.hit((2.0, 1.5, 0.0), (2.0, 1.5, 3.0))

    def test_tiny_component_counts_as_parallel(self):
        # box with its min y face at y = 0; |dy| <= PARALLEL_EPS means the
        # segment is inside the y slab only strictly between the faces
        bmin, bmax = np.array([[1.0, 0.0, 1.0]]), np.array([[2.0, 1.0, 2.0]])
        cases = [(0.0, dy, False) for dy in (PARALLEL_EPS, -PARALLEL_EPS, 5e-324, 0.0)]
        cases += [(-0.0, -0.0, False), (0.5, PARALLEL_EPS, True), (0.0, 2 * PARALLEL_EPS, True)]
        for y0, dy, expected in cases:
            got = segments_hit_boxes(np.array([[0.0, y0, 1.5]]), np.array([[3.0, y0 + dy, 1.5]]), bmin, bmax)
            assert bool(got[0]) is expected, (y0, dy)

    def test_crossing_exactly_through_an_edge_is_a_hit(self):
        # the closed slab intervals meet in one point: tmin == tmax
        assert self.hit((0.0, 2.0, 1.5), (2.0, 0.0, 1.5))
        assert self.hit((0.0, 4.0, 1.5), (4.0, 0.0, 1.5))

    @pytest.mark.parametrize("x_min, x_max, expected", [
        (-1.0, SEGMENT_EPS, False),  # exit at t = SEGMENT_EPS exactly
        (-1.0, np.nextafter(SEGMENT_EPS, np.inf), True),
        (1.0 - SEGMENT_EPS, 5.0, False),  # entry at t = 1 - SEGMENT_EPS exactly
        (np.nextafter(1.0 - SEGMENT_EPS, -np.inf), 5.0, True),
    ])
    def test_segment_window_is_open(self, x_min, x_max, expected):
        # x from 0 to 1, so t = x; y and z stay inside the box. The box alone, with a copy,
        # with a far box that has its y and z bounds, and with both: its x bounds then
        # stand alone, broadcast, are one of K boxes' own, or are one of 2 pairs for 3 boxes
        bmin, bmax = np.array([[x_min, -1.0, -1.0]]), np.array([[x_max, 1.0, 1.0]])
        far = [10.0, 0.0, 0.0]
        for extra in [[], [0.0], [far], [0.0, far]]:
            box_min = np.concatenate([bmin] + [bmin + shift for shift in extra])
            box_max = np.concatenate([bmax] + [bmax + shift for shift in extra])
            got = segments_hit_boxes(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]), box_min, box_max)
            assert bool(got[0]) is expected, extra

    def test_no_boxes(self):
        out = segments_hit_boxes(
            np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 1.0, 1.0]]),
            np.empty((0, 3)), np.empty((0, 3)),
        )
        assert not out[0]


def dense_hits(p0, p1, box_min, box_max, eps=1e-9):
    """Reference slab test on dense (S, M, 3) arrays, with the same face rule:
    on an axis with |d| <= PARALLEL_EPS the segment is inside the slab only
    strictly between its faces."""
    d = p1 - p0
    parallel = np.abs(d) <= PARALLEL_EPS
    d_safe = np.where(parallel, PARALLEL_EPS, d)
    with np.errstate(divide="ignore", over="ignore"):
        t1 = (box_min[None, :, :] - p0[:, None, :]) / d_safe[:, None, :]
        t2 = (box_max[None, :, :] - p0[:, None, :]) / d_safe[:, None, :]
    inside = (box_min[None] < p0[:, None]) & (p0[:, None] < box_max[None])
    parallel = parallel[:, None, :]
    lo = np.where(parallel, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    hi = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    tmin, tmax = lo.max(axis=2), hi.min(axis=2)
    return ((tmax >= tmin) & (tmax > eps) & (tmin < 1.0 - eps)).any(axis=1)


def brute_force_outside(p0, p1, box_min, box_max, samples=2001):
    """How far the segment keeps outside one box: the minimum over sampled t
    of the largest per-axis distance outside (negative when inside), and the
    bound on how much lower the true minimum can be between samples."""
    t = np.linspace(0.0, 1.0, samples)[:, None]
    pts = p0 + t * (p1 - p0)
    outside = np.maximum(box_min - pts, pts - box_max).max(axis=1)
    return outside.min(), np.abs(p1 - p0).max() / (samples - 1)


# quarter-metre grid: exact in binary, so endpoints land exactly on faces
GRID = st.integers(-8, 24).map(lambda k: k * 0.25)
SPECIAL = st.sampled_from([0.0, -0.0, PARALLEL_EPS, -PARALLEL_EPS, 5e-324, 2 * PARALLEL_EPS])


@st.composite
def box_sets(draw):
    """Random boxes on the grid, seat-row lattices (optionally with an
    overlapping second box per seat) of up to 144 boxes, or random boxes that
    share their bounds: on one, two or all three axes each box takes one of
    up to three (min, max) pairs, two axes may map the boxes to their pairs
    alike, and some boxes are repeated exactly."""
    kind = draw(st.sampled_from(["random", "lattice", "shared"]))
    if kind == "lattice":
        rows, seats = draw(st.integers(1, 12)), draw(st.integers(1, 6))
        pitch = draw(st.sampled_from([0.75, 1.0, 1.25]))
        mins, maxs = [], []
        for r in range(rows):
            for s in range(seats):
                mins.append((r * pitch, 0.5 * s, 0.0))
                maxs.append((r * pitch + 0.5, 0.5 * s + 0.5, 1.25))
        if draw(st.booleans()):
            mins += [(x + 0.125, y + 0.125, 0.5) for x, y, _ in mins]
            maxs += [(x - 0.125, y - 0.125, 1.5) for x, y, _ in maxs]
        return np.array(mins), np.array(maxs)
    m = draw(st.integers(1, 40))
    lo = np.array(draw(st.lists(GRID, min_size=3 * m, max_size=3 * m))).reshape(m, 3)
    hi = lo + 0.25 * np.array(draw(st.lists(st.integers(1, 8), min_size=3 * m, max_size=3 * m))).reshape(m, 3)
    if kind == "shared":
        pairs = draw(st.integers(1, min(3, m)))
        pick = None
        for a in sorted(draw(st.sets(st.integers(0, 2), min_size=1))):
            if pick is None or draw(st.booleans()):
                pick = np.array(draw(st.lists(st.integers(0, pairs - 1), min_size=m, max_size=m)))
            lo[:, a], hi[:, a] = lo[pick, a], hi[pick, a]
        repeat = draw(st.lists(st.integers(0, m - 1), max_size=m))
        lo, hi = np.concatenate([lo, lo[repeat]]), np.concatenate([hi, hi[repeat]])
    return lo, hi


@st.composite
def segment_sets(draw, box_min, box_max):
    """Segments whose coordinates come from the grid, from box faces and
    corners, or from signed zeros and tiny values; some components are
    copied from p0 (axis-parallel), some segments have zero length, and some
    pass exactly through a box corner, edge or face plane at t = 0.5."""
    faces = np.stack([box_min, box_max])
    coord = st.one_of(GRID, SPECIAL, st.floats(-3.0, 7.0))
    step = st.integers(-4, 4).map(lambda k: k * 0.25)
    out0, out1 = [], []
    for _ in range(draw(st.integers(1, 12))):
        box = draw(st.integers(0, len(box_min) - 1))
        corner = [faces[draw(st.integers(0, 1)), box, a] for a in range(3)]
        if draw(st.integers(0, 3)) == 0:
            v = [draw(step) for _ in range(3)]
            out0.append([c - dv for c, dv in zip(corner, v)])
            out1.append([c + dv for c, dv in zip(corner, v)])
            continue
        p0, p1 = [], []
        for a in range(3):
            p0.append(corner[a] if draw(st.booleans()) else draw(coord))
            kind = draw(st.sampled_from(["free", "face", "same", "tiny"]))
            if kind == "same":
                p1.append(p0[a])
            elif kind == "tiny":
                p1.append(p0[a] + draw(SPECIAL))
            elif kind == "face":
                p1.append(faces[draw(st.integers(0, 1)), draw(st.integers(0, len(box_min) - 1)), a])
            else:
                p1.append(draw(coord))
        out0.append(p0)
        out1.append(p1 if draw(st.integers(0, 9)) else p0)
    return np.array(out0), np.array(out1)


def group_box_map(k, u, index):
    """The map from K boxes to a group's U pairs, also where ``AxisGroup`` leaves it implicit."""
    return np.zeros(k, dtype=np.intp) if u == 1 else np.arange(k) if index is None else index


def boxes_from_groups(groups, k):
    """The (3, K, 1) min and max bounds of the K boxes that ``groups`` hold."""
    bmin, bmax = np.full((3, k, 1), np.nan), np.full((3, k, 1), np.nan)
    for axes, pmin, pmax, index in groups:
        box_map = group_box_map(k, pmin.shape[1], index)
        for i, a in enumerate(axes):
            bmin[a], bmax[a] = pmin[i, box_map], pmax[i, box_map]
    return bmin, bmax


def check_axis_groups(groups, bmin, bmax):
    """Each of the three axes is in one group; a group's pairs are distinct on
    each of its axes and, mapped back to the K boxes (3, K, 1), rebuild their
    bounds bit for bit; no two groups map the boxes alike; groups come in
    rising pair count, and only U of 1 or K leaves the map implicit."""
    k = bmin.shape[1]
    assert sorted(a for g in groups for a in g.axes) == [0, 1, 2]
    maps, sizes = set(), []
    for axes, pmin, pmax, index in groups:
        u = pmin.shape[1]
        assert pmin.shape == pmax.shape == (len(axes), u, 1)
        assert (index is None) == (u in (1, k))
        box_map = group_box_map(k, u, index)
        assert sorted(set(box_map.tolist())) == list(range(u))
        maps.add(box_map.tobytes())
        sizes.append(u)
        for i, a in enumerate(axes):
            pairs = np.stack([pmin[i, :, 0], pmax[i, :, 0]], axis=1)
            assert len({row.tobytes() for row in pairs}) == u
            assert pmin[i, box_map, 0].tobytes() == bmin[a, :, 0].tobytes()
            assert pmax[i, box_map, 0].tobytes() == bmax[a, :, 0].tobytes()
    assert len(maps) == len(groups) and sizes == sorted(sizes)


class TestSegmentBoxHitsProperties:
    @given(st.data())
    def test_matches_dense_reference(self, data):
        box_min, box_max = data.draw(box_sets())
        p0, p1 = data.draw(segment_sets(box_min, box_max))
        got = segments_hit_boxes(p0, p1, box_min, box_max)
        assert np.array_equal(got, dense_hits(p0, p1, box_min, box_max))

    @given(box_sets())
    def test_clusters_cover_every_box_once(self, boxes):
        box_min, box_max = boxes
        clusters = box_clusters(box_min, box_max)
        assert len(clusters.sizes) == math.isqrt(len(box_min))
        lo, hi = boxes_from_groups(clusters.union_groups, len(clusters.sizes))
        check_axis_groups(clusters.union_groups, lo, hi)
        seen = []
        for c, (groups, size) in enumerate(zip(clusters.member_groups, clusters.sizes)):
            bmin, bmax = boxes_from_groups(groups, size)
            check_axis_groups(groups, bmin, bmax)
            assert np.all(lo[:, c, None] <= bmin) and np.all(bmax <= hi[:, c, None])
            seen += list(zip(map(tuple, bmin[:, :, 0].T), map(tuple, bmax[:, :, 0].T)))
        assert sorted(seen) == sorted(zip(map(tuple, box_min), map(tuple, box_max)))

    @given(
        st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6),
        st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3),
        st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6),
    )
    def test_matches_brute_force_clear_of_boundaries(self, lo_and_shift, size, ends):
        box_min = np.array([lo_and_shift[:3], lo_and_shift[3:]])
        box_max = box_min + np.array([size, size[::-1]])
        p0, p1 = np.array([ends[:3]]), np.array([ends[3:]])
        margin = 1e-6
        expected = False
        for bmin, bmax in zip(box_min, box_max):
            outside, sampling = brute_force_outside(p0[0], p1[0], bmin, bmax)
            if -margin <= outside <= sampling + margin:
                return  # grazes a boundary: the brute force cannot decide
            expected = expected or bool(outside < 0.0)
        assert bool(segments_hit_boxes(p0, p1, box_min, box_max)[0]) is expected
