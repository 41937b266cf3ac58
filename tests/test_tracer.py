import cmath
import copy
import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from collections import namedtuple
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_geometry import dense_hits

from dataset_builder import path_codes, records_of, trace_one_rx

from idschan import tracer
from idschan.geometry import SPEED_OF_LIGHT, mirror_point
from idschan.linksim import LinkBudget
from idschan.pathdata import CSV_COLUMNS, Condition, DatasetFormatError, Interaction, load_dataset
from idschan.tracer import (
    _T_EPS,
    FACES,
    GLASS,
    GLASS_CARBON,
    MATERIALS,
    MAX_RECEIVERS,
    MAX_REFLECTIONS,
    PEC_METAL,
    Blocker,
    CabinLayout,
    GeometryError,
    Material,
    ScenarioPreset,
    Scene,
    _fresnel_gain_db,
    _trace_sequence,
    build_scenario,
    fspl_db,
    scene_from_json,
    reflection_sequences,
    trace_scenario,
)


def pec_walls():
    return {f: PEC_METAL for f in FACES}


def empty_box(dims=(5.0, 4.0, 3.0), tx=(1.0, 2.0, 1.5), rx=(2.0, 2.0, 1.5), order=0, walls=None):
    return Scene(
        name="box",
        cabin_dims_m=dims,
        wall_materials=walls or pec_walls(),
        blockers=(),
        tx_position_m=tx,
        rx_grid=[rx],
        max_reflections=order,
    )


def fresnel_reflection(material: Material, incidence_rad: float, polarization: str) -> complex:
    """Scalar complex reflection coefficient at a dielectric (or PEC) boundary,
    the reference for the tracer's vector ``_fresnel_gain_db``.

    ``incidence_rad`` is measured from the surface normal, in [0, pi/2).
    TE is the field transverse to the plane of incidence, TM parallel to it.
    """
    if material.is_pec:
        return complex(-1.0) if polarization == "TE" else complex(1.0)
    eps = material.permittivity
    ci = math.cos(incidence_rad)
    root = cmath.sqrt(eps - math.sin(incidence_rad) ** 2)
    if polarization == "TE":
        return (ci - root) / (ci + root)
    return (eps * ci - root) / (eps * ci + root)


def gain_db(material, angles_rad, pol):
    """The tracer's per-bounce gain at incidence angles from the normal."""
    return _fresnel_gain_db(material, np.cos(np.asarray(angles_rad, dtype=float)), pol)


class TestFresnel:
    def test_pec_magnitude_one_any_angle(self):
        angles = (0.0, 0.3, 1.0, 1.5)
        for pol in ("TE", "TM"):
            assert np.array_equal(gain_db(PEC_METAL, angles, pol), np.zeros(len(angles)))
            for angle in angles:
                assert abs(fresnel_reflection(PEC_METAL, angle, pol)) == 1.0

    def test_glass_normal_incidence_oracle(self):
        # at normal incidence both polarizations reduce to (1 - sqrt(eps)) / (1 + sqrt(eps))
        eps = 6.27 - 0.1469j
        expected = (1 - cmath.sqrt(eps)) / (1 + cmath.sqrt(eps))
        for pol in ("TE", "TM"):
            (got,) = gain_db(GLASS, [0.0], pol)
            assert math.isclose(got, 20.0 * math.log10(abs(expected)), abs_tol=1e-12)
        assert abs(abs(expected) - 0.429) < 5e-4
        assert abs(abs(expected) ** 2 - 0.184) < 5e-4

    def test_grazing_limit(self):
        near, mid = gain_db(GLASS, [math.radians(89.99), math.radians(45.0)], "TE")
        assert near > 20.0 * math.log10(0.999)
        assert near > mid

    @given(
        st.floats(1.0, 100.0),
        st.floats(0.0, 100.0),
        st.floats(0.0, math.pi / 2 - 1e-6),
        st.sampled_from(["TE", "TM"]),
    )
    def test_magnitude_bounded(self, eps_re, eps_im, angle, pol):
        mat = Material("m", complex(eps_re, -eps_im))
        assert gain_db(mat, [angle], pol)[0] <= 1e-12

    @given(
        st.floats(1.0, 100.0),
        st.floats(0.0, 100.0),
        st.lists(st.floats(0.0, math.pi / 2 - 1e-6), min_size=1, max_size=8),
        st.sampled_from(["TE", "TM"]),
        st.booleans(),
    )
    def test_vector_matches_scalar_oracle(self, eps_re, eps_im, angles, pol, pec):
        mat = PEC_METAL if pec else Material("m", complex(eps_re, -eps_im))
        got = 10.0 ** (gain_db(mat, angles, pol) / 20.0)
        expected = [abs(fresnel_reflection(mat, angle, pol)) for angle in angles]
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


class TestTraceLink:
    def test_friis_single_direct_path(self):
        scene = empty_box()
        budget = LinkBudget()
        (path,) = trace_one_rx(scene, (2.0, 2.0, 1.5), budget)
        lam = SPEED_OF_LIGHT / 28e9
        expected = 20.0 - 20.0 * math.log10(4.0 * math.pi * 1.0 / lam)
        assert path.interactions == (Interaction.DIRECT,)
        assert math.isclose(path.power_dbm, expected, abs_tol=1e-9)
        assert math.isclose(path.power_dbm, -41.4, abs_tol=0.05)
        assert math.isclose(path.delay_ns, 1.0 / SPEED_OF_LIGHT * 1e9, rel_tol=1e-12)
        assert math.isclose(path.delay_ns, 3.336, abs_tol=1e-3)

    def test_full_occlusion_gives_outage(self):
        scene = Scene(
            name="blocked",
            cabin_dims_m=(5.0, 4.0, 3.0),
            wall_materials=pec_walls(),
            blockers=(Blocker((1.4, 1.5, 1.0), (1.6, 2.5, 2.0)),),
            tx_position_m=(1.0, 2.0, 1.5),
            rx_grid=[(2.0, 2.0, 1.5)],
            max_reflections=0,
        )
        assert trace_one_rx(scene, (2.0, 2.0, 1.5), LinkBudget()) == []

    def test_pec_box_first_order_has_seven_paths(self):
        dims = (5.0, 4.0, 3.0)
        tx = np.array([1.0, 2.0, 1.5])
        rx = np.array([2.0, 2.0, 1.5])
        scene = empty_box(dims, tuple(tx), tuple(rx), order=1)
        paths = trace_one_rx(scene, tuple(rx), LinkBudget())
        assert len(paths) == 7
        # expected unfolded distances, one per face image, plus direct
        expected = {round(float(np.linalg.norm(rx - tx)), 9)}
        for axis, coord in [(0, 0.0), (0, 5.0), (1, 0.0), (1, 4.0), (2, 0.0), (2, 3.0)]:
            img = tx.copy()
            img[axis] = 2 * coord - img[axis]
            expected.add(round(float(np.linalg.norm(rx - img)), 9))
        got = {round(p.delay_ns * 1e-9 * SPEED_OF_LIGHT, 9) for p in paths}
        assert got == expected
        lam = SPEED_OF_LIGHT / 28e9
        for p in paths:
            d = p.delay_ns * 1e-9 * SPEED_OF_LIGHT
            friis = 20.0 - float(fspl_db(d, lam))
            assert math.isclose(p.power_dbm, friis, abs_tol=1e-9)  # |Gamma| = 1

    def test_sensitivity_culls_weak_paths(self):
        scene = empty_box(order=1)
        strict = LinkBudget(sensitivity_dbm=-45.0)
        paths = trace_one_rx(scene, (2.0, 2.0, 1.5), strict)
        assert [p.interactions for p in paths] == [(Interaction.DIRECT,)]

    def test_sensitivity_threshold_is_inclusive(self):
        # a path at exactly the sensitivity is kept; one ulp above the threshold drops it
        scene = empty_box(order=2, walls={f: GLASS for f in FACES})
        rx = (2.0, 2.0, 1.5)
        powers = sorted(p.power_dbm for p in trace_one_rx(scene, rx, LinkBudget()))
        edge = powers[len(powers) // 2]
        kept = [p.power_dbm for p in trace_one_rx(scene, rx, LinkBudget(sensitivity_dbm=edge))]
        assert sorted(kept) == [p for p in powers if p >= edge] and edge in kept
        above = float(np.nextafter(edge, math.inf))
        kept = [p.power_dbm for p in trace_one_rx(scene, rx, LinkBudget(sensitivity_dbm=above))]
        assert sorted(kept) == [p for p in powers if p > edge] and edge not in kept

    def test_rx_outside_cabin_rejected(self):
        scene = empty_box()
        with pytest.raises(GeometryError):
            trace_one_rx(scene, (9.0, 2.0, 1.5), LinkBudget())

    def test_rx_inside_blocker_rejected(self):
        scene = Scene(
            name="b",
            cabin_dims_m=(5.0, 4.0, 3.0),
            wall_materials=pec_walls(),
            blockers=(Blocker((2.5, 1.5, 1.0), (3.5, 2.5, 2.0)),),
            tx_position_m=(1.0, 2.0, 1.5),
            rx_grid=[(1.5, 2.0, 1.5)],
            max_reflections=0,
        )
        with pytest.raises(GeometryError):
            trace_one_rx(scene, (3.0, 2.0, 1.5), LinkBudget())

    def test_rx_at_tx_rejected(self):
        with pytest.raises(GeometryError, match="RX 0 coincides with the TX"):
            trace_one_rx(empty_box(order=1), (1.0, 2.0, 1.5), LinkBudget())

    def test_rx_with_two_coordinates_rejected(self):
        with pytest.raises(GeometryError, match="rx_grid"):
            trace_one_rx(empty_box(), (2.0, 2.0), LinkBudget())


# How far outside its face a bounce point may lie in the oracle below
_B_EPS = 1e-12


def dense_trace_sequence(scene: Scene, rx: np.ndarray, seq: tuple[str, ...]):
    """Vectorized over receivers: geometry of one face sequence.

    Returns (valid mask (N,), unfolded lengths (N,), points (N, k+2, 3)).

    The tracer's former form, which runs every bounce on every receiver and
    also requires each bounce point within its face: the reference for
    ``_trace_sequence``, which traces the live receivers only and leaves the
    face bounds to the ``t`` windows.
    """
    n = rx.shape[0]
    tx = np.asarray(scene.tx_position_m, dtype=float)
    dims = np.asarray(scene.cabin_dims_m, dtype=float)
    k = len(seq)
    points = np.empty((n, k + 2, 3))
    points[:, 0, :] = tx
    points[:, -1, :] = rx
    if k == 0:
        lengths = np.linalg.norm(rx - tx, axis=1)
        return np.ones(n, dtype=bool), lengths, points

    images = []
    img = tx
    for face in seq:
        axis, side = divmod(FACES.index(face), 2)
        img = mirror_point(img, axis, side * dims[axis])
        images.append(img)

    valid = np.ones(n, dtype=bool)
    cur = rx
    for j in range(k - 1, -1, -1):
        axis, side = divmod(FACES.index(seq[j]), 2)
        plane_c = side * dims[axis]
        s = images[j]
        denom = s[axis] - cur[:, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (plane_c - cur[:, axis]) / denom
        valid &= np.isfinite(t) & (t > _T_EPS) & (t < 1.0 - _T_EPS)
        t = np.where(valid, t, 0.5)  # keep the arithmetic finite on dead rows
        p = cur + t[:, None] * (s[None, :] - cur)
        p[:, axis] = plane_c
        for ax in range(3):
            if ax != axis:
                valid &= (p[:, ax] >= -_B_EPS) & (p[:, ax] <= dims[ax] + _B_EPS)
        points[:, j + 1, :] = p
        cur = p
    lengths = np.linalg.norm(rx - images[-1][None, :], axis=1)
    return valid, lengths, points


def all_sequences(max_order: int) -> list[tuple[str, ...]]:
    """Every face sequence up to max_order with no immediate repeat, by count
    and then lexicographic in FACES index; ``reflection_sequences`` lists the
    alternating ones among them, in the same order."""
    return [seq for k in range(max_order + 1) for seq in itertools.product(FACES, repeat=k)
            if all(a != b for a, b in zip(seq, seq[1:]))]


def alternates(seq: tuple[str, ...]) -> bool:
    """Whether each axis's reflections in ``seq`` alternate between its two faces."""
    last = {}
    for face in seq:
        axis, side = divmod(FACES.index(face), 2)
        if last.get(axis) == side:
            return False
        last[axis] = side
    return True


# how random_box_scene places its points
PLACEMENTS = st.sampled_from(["uniform", "grid", "near_wall"])


def random_box_scene(seed: int, placement: str, n_rx: int = 50) -> Scene:
    """An empty PEC box with a random TX and receivers, 30% of whose
    coordinates are copied from the TX. ``placement``: "uniform", "grid" (box
    and points on a quarter-metre grid) or "near_wall" (40% of coordinates
    1e-300 to 1e-3 of the box size from a wall)."""
    rng = np.random.default_rng(seed)
    on_grid = placement == "grid"
    dims = np.round(rng.uniform(2.0, 8.0, 3) * 4.0) / 4.0 if on_grid else rng.uniform(2.0, 8.0, 3)

    def draw(shape):
        pts = rng.uniform(0.05, 0.95, shape) * dims
        if placement == "near_wall":
            gap = 10.0 ** rng.uniform(-300.0, -3.0, shape) * dims
            wall = np.clip(np.where(rng.random(shape) < 0.5, gap, dims - gap),
                           np.nextafter(0.0, 1.0), np.nextafter(dims, 0.0))
            pts = np.where(rng.random(shape) < 0.4, wall, pts)
        return np.clip(np.round(pts * 4.0) / 4.0, 0.25, dims - 0.25) if on_grid else pts

    tx = draw(3)
    rx = draw((n_rx, 3))
    rx = np.where(rng.random((n_rx, 3)) < 0.3, tx, rx)  # level with the TX on some axes
    rx = rx[np.linalg.norm(rx - tx, axis=1) >= 1e-9]
    assume(len(rx) > 0)
    return Scene("box", tuple(dims), pec_walls(), (), tuple(tx), rx, max_reflections=4)


class TestTraceSequence:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1), PLACEMENTS)
    def test_live_rows_match_the_dense_oracle(self, seed, placement):
        """Every sequence up to order 4 keeps exactly the oracle's valid rows,
        with bit-equal lengths and points, though only the oracle checks that
        each point lies within its face. Receivers that share coordinates
        with the TX, or sit on a quarter-metre grid with it, meet zero
        denominators."""
        scene = random_box_scene(seed, placement)
        for seq in all_sequences(4):
            valid, lengths, points = dense_trace_sequence(scene, scene.rx_grid, seq)
            rows, got_lengths, got_points = _trace_sequence(scene, scene.rx_grid, seq)
            assert np.array_equal(rows, np.flatnonzero(valid))
            assert got_lengths.tobytes() == lengths[rows].tobytes()
            assert got_points.tobytes() == points[rows].tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), PLACEMENTS)
    def test_sequences_that_do_not_alternate_have_no_path(self, seed, placement):
        """A sequence that meets one face twice with only other axes between,
        like front, left, front, keeps no receiver, so the trace need not list it."""
        scene = random_box_scene(seed, placement, n_rx=200)
        listed = set(reflection_sequences(4))
        unlisted = [seq for seq in all_sequences(4) if seq not in listed]
        assert len(unlisted) == 24 + 288
        for seq in unlisted:
            assert _trace_sequence(scene, scene.rx_grid, seq)[0].size == 0, seq

    def test_alternating_sequence_counts(self):
        # the listed order is the sort key of the traced paths, so it must be the oracle's
        for k in range(MAX_REFLECTIONS + 1):
            assert reflection_sequences(k) == [seq for seq in all_sequences(k) if alternates(seq)]
        assert [len(reflection_sequences(k)) for k in range(7)] == [1, 7, 37, 163, 625, 2191, 7261]
        assert [len(all_sequences(k)) for k in range(7)] == [1, 7, 37, 187, 937, 4687, 23437]
        assert ("front", "left", "front") not in reflection_sequences(3)
        assert ("front", "left", "back", "floor", "front") in reflection_sequences(5)


TracedPath = namedtuple("TracedPath", "faces points_m unfolded_length_m component")


def traced_paths(scene, rx, budget):
    """trace_one_rx's paths, each with its face sequence, folded points and
    unfolded length from the tracer's per-sequence geometry. Every valid
    sequence must be kept: the helper is for unblocked scenes with a lax budget."""
    rx_row = np.asarray(rx, dtype=float)[None, :]
    geometry = []
    for seq in all_sequences(scene.max_reflections):
        valid, lengths, points = dense_trace_sequence(scene, rx_row, seq)
        if valid[0]:
            geometry.append((seq, points[0], float(lengths[0])))
    paths = trace_one_rx(scene, rx, budget)
    assert len(paths) == len(geometry)
    for (_, _, length), comp in zip(geometry, paths):
        assert math.isclose(comp.delay_ns * 1e-9 * SPEED_OF_LIGHT, length, rel_tol=1e-12)
    return [TracedPath(*g, comp) for g, comp in zip(geometry, paths)]


class TestGeometryInvariants:
    TX = (1.137, 0.811, 1.913)
    RX = (3.71, 2.93, 0.623)

    def paths(self, order=3, walls=None, tx=None, rx=None):
        tx = tx or self.TX
        rx = rx or self.RX
        scene = empty_box((5.0, 4.0, 3.0), tx, rx, order=order, walls=walls)
        return traced_paths(scene, rx, LinkBudget())

    def test_reflection_points_on_faces(self):
        dims = (5.0, 4.0, 3.0)
        plane = {"front": (0, 0.0), "back": (0, 5.0), "left": (1, 0.0),
                 "right": (1, 4.0), "floor": (2, 0.0), "ceiling": (2, 3.0)}
        for tp in self.paths():
            for face, point in zip(tp.faces, tp.points_m[1:-1]):
                axis, coord = plane[face]
                assert point[axis] == coord
                for ax in range(3):
                    assert -1e-9 <= point[ax] <= dims[ax] + 1e-9

    def test_unfolded_equals_folded_length(self):
        for tp in self.paths():
            folded = float(np.sum(np.linalg.norm(np.diff(tp.points_m, axis=0), axis=1)))
            assert math.isclose(tp.unfolded_length_m, folded, rel_tol=1e-9)

    def test_energy_never_exceeds_friis(self):
        walls = {f: GLASS for f in FACES}
        lam = SPEED_OF_LIGHT / 28e9
        for tp in self.paths(walls=walls):
            friis = 20.0 - float(fspl_db(tp.unfolded_length_m, lam))
            assert tp.component.power_dbm <= friis + 1e-9

    def test_monotone_in_reflection_order(self):
        by_faces_1 = {tp.faces: tp for tp in self.paths(order=1)}
        by_faces_3 = {tp.faces: tp for tp in self.paths(order=3)}
        assert set(by_faces_1) <= set(by_faces_3)
        for faces, tp in by_faces_1.items():
            assert math.isclose(
                tp.component.power_dbm, by_faces_3[faces].component.power_dbm, rel_tol=1e-12
            )

    def test_bounce_gain_matches_scalar_fresnel(self):
        # first-order bounces off glass walls: power must equal Friis at the
        # unfolded distance plus the per-face coefficient, TM on floor and
        # ceiling, TE on the side and end walls
        walls = {f: GLASS for f in FACES}
        axis_of = {"front": 0, "back": 0, "left": 1, "right": 1, "floor": 2, "ceiling": 2}
        lam = SPEED_OF_LIGHT / 28e9
        for tp in self.paths(order=1, walls=walls):
            if not tp.faces:
                continue
            (face,) = tp.faces
            seg = tp.points_m[1] - tp.points_m[0]
            cos_inc = abs(seg[axis_of[face]]) / np.linalg.norm(seg)
            theta = math.acos(min(cos_inc, 1.0))
            pol = "TM" if face in ("floor", "ceiling") else "TE"
            gamma = fresnel_reflection(GLASS, theta, pol)
            expected = 20.0 - float(fspl_db(tp.unfolded_length_m, lam)) \
                + 20.0 * math.log10(abs(gamma))
            assert math.isclose(tp.component.power_dbm, expected, rel_tol=1e-9)

    def test_reciprocity_swap_tx_rx(self):
        fwd = self.paths(order=3)
        rev = self.paths(order=3, tx=self.RX, rx=self.TX)
        assert len(fwd) == len(rev)
        fwd.sort(key=lambda t: t.unfolded_length_m)
        rev.sort(key=lambda t: t.unfolded_length_m)
        for a, b in zip(fwd, rev):
            assert math.isclose(a.unfolded_length_m, b.unfolded_length_m, rel_tol=1e-9)
            assert math.isclose(a.component.aod_az_deg, b.component.aoa_az_deg, abs_tol=1e-9)
            assert math.isclose(a.component.aod_el_deg, b.component.aoa_el_deg, abs_tol=1e-9)
            assert math.isclose(a.component.aoa_az_deg, b.component.aod_az_deg, abs_tol=1e-9)


def lattice_image_distances(dims, tx, rx, max_order):
    """Independent image-source oracle for the empty box.

    Per axis, the mirror images of tx across the two parallel walls sit at
    2nL + tx (|2n| bounces) and 2nL - tx (|2n - 1| bounces); a 3-D image is
    any combination with total bounce count <= max_order, and each one is a
    distinct specular path whose length is the straight rx-image distance.
    """
    per_axis = []
    for ax in range(3):
        span = dims[ax]
        opts = []
        for n in range(-(max_order + 1), max_order + 2):
            for sign, count in ((1, abs(2 * n)), (-1, abs(2 * n - 1))):
                if count <= max_order:
                    opts.append((2 * n * span + sign * tx[ax], count))
        per_axis.append(opts)
    dists = []
    for x, cx in per_axis[0]:
        for y, cy in per_axis[1]:
            for z, cz in per_axis[2]:
                if cx + cy + cz <= max_order:
                    dists.append(math.dist(rx, (x, y, z)))
    return sorted(dists)


class TestLatticeOracle:
    @given(st.integers(0, 10))
    def test_counts_and_lengths_match_image_lattice(self, trial):
        rng = np.random.default_rng(trial)
        dims = tuple(rng.uniform(2.5, 8.0, 3))
        tx = tuple(rng.uniform(0.25, 0.75, 3) * dims)
        rx = tuple(rng.uniform(0.25, 0.75, 3) * dims)
        budget = LinkBudget(sensitivity_dbm=-1000.0)
        for order in (0, 1, 2, 3, 4):
            scene = empty_box(dims, tx, rx, order=order)
            got = sorted(
                p.delay_ns * 1e-9 * SPEED_OF_LIGHT for p in trace_one_rx(scene, rx, budget)
            )
            want = lattice_image_distances(dims, tx, rx, order)
            assert len(got) == len(want) == (1, 7, 25, 63, 129)[order]
            for g, w in zip(got, want):
                assert math.isclose(g, w, rel_tol=1e-9)


class TestBlockerOracle:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 2), st.booleans())
    def test_kept_paths_are_valid_and_unblocked(self, seed, n_boxes, order, on_grid):
        """trace_scenario keeps a (receiver, sequence) path exactly when
        dense_trace_sequence finds it valid and no segment hits a box under the
        dense slab reference. Grid-aligned draws put segments on box faces."""
        rng = np.random.default_rng(seed)
        dims = np.array([5.0, 4.0, 3.0])

        def draw(n, lo, hi):
            pts = rng.uniform(lo, hi, (n, 3)) * dims
            return np.round(pts * 4.0) / 4.0 if on_grid else pts

        box_min = draw(n_boxes, 0.0, 0.8)
        box_max = np.minimum(box_min + np.maximum(draw(n_boxes, 0.05, 0.3), 0.25), dims)
        points = draw(40, 0.05, 0.95)
        inside = np.any(np.all(points[:, None] >= box_min, axis=2) & np.all(points[:, None] <= box_max, axis=2),
                        axis=1)
        points = np.unique(points[~inside], axis=0)
        assume(len(points) >= 2)
        scene = Scene("blocked", tuple(dims), pec_walls(),
                      tuple(Blocker(tuple(lo), tuple(hi)) for lo, hi in zip(box_min, box_max)),
                      tuple(points[0]), points[1:13], max_reflections=order)
        want = [[] for _ in scene.rx_grid]
        for seq in all_sequences(order):
            valid, lengths, pts = dense_trace_sequence(scene, scene.rx_grid, seq)
            code = "+".join("R" * len(seq)) or "L"
            for i in np.flatnonzero(valid):
                if not any(dense_hits(pts[i, j:j + 1], pts[i, j + 1:j + 2], box_min, box_max)[0]
                           for j in range(len(seq) + 1)):
                    want[i].append((code, lengths[i] / SPEED_OF_LIGHT * 1e9))
        ds = trace_scenario(scene, LinkBudget(sensitivity_dbm=-1000.0))  # no PEC path is this weak
        got = [list(zip(path_codes(r.paths), r.paths.delay_ns.tolist())) for r in ds.records]
        assert got == want


def small_layout():
    return CabinLayout(rx_heights_m=(0.7,), rx_lateral_step_m=0.5, rx_lateral_margin_m=0.2)


class TestBuildScenario:
    def test_bl_defaults(self):
        scene = build_scenario(ScenarioPreset.BL)
        humans = [b for b in scene.blockers if b.label == "Human"]
        seats = [b for b in scene.blockers if b.label == "Seat"]
        assert len(humans) == 72
        assert len(seats) == 72
        assert scene.rx_grid.shape == (2400, 3)
        assert all(m.is_pec for m in scene.wall_materials.values())

    def test_emv_has_no_humans(self):
        scene = build_scenario("EmV")
        assert all(b.label != "Human" for b in scene.blockers)
        assert scene.rx_grid.shape == (2400, 3)

    def test_cv_walls_composite(self):
        scene = build_scenario(ScenarioPreset.CV)
        assert all(m == GLASS_CARBON for m in scene.wall_materials.values())

    def test_max_reflections_override(self):
        scene = build_scenario(ScenarioPreset.BL, max_reflections=0)
        assert scene.max_reflections == 0

    def test_tx_placement(self):
        scene = build_scenario(ScenarioPreset.BL)
        assert scene.tx_position_m[1] == 1.7
        assert scene.tx_position_m[2] == 2.1

    def test_bl_preset_geometry_pinned(self):
        # the fixed seat, passenger and TX constants of the layout, as the BL preset places them
        scene = build_scenario(ScenarioPreset.BL)
        want = {  # blocker index -> (label, material, min corner, max corner)
            0: ("Seat", "nylon", (0.95, 0.05, 0.0), (1.45, 0.55, 1.2)),
            71: ("Seat", "nylon", (12.5, 3.45, 0.0), (13.0, 3.95, 1.2)),
            72: ("Human", "human_skin", (1.025, 0.075, 0.55), (1.375, 0.525, 1.45)),
            143: ("Human", "human_skin", (12.575, 3.475, 0.55), (12.925, 3.925, 1.45)),
        }
        for i, (label, material, lo, hi) in want.items():
            b = scene.blockers[i]
            assert (b.label, b.material.name) == (label, material)
            assert b.min_m == pytest.approx(lo, abs=1e-12) and b.max_m == pytest.approx(hi, abs=1e-12)
        assert scene.tx_position_m == (0.05, 1.7, 2.1)
        assert scene.rx_grid[0] == pytest.approx((0.45, 0.05, 0.6), abs=1e-12)
        assert scene.rx_grid[-1] == pytest.approx((12.0, 3.95, 1.0), abs=1e-12)

    def test_layout_fields_are_the_settable_knobs(self):
        assert [f.name for f in dataclasses.fields(CabinLayout)] == [
            "cabin_dims_m", "rows", "row_pitch_m", "first_row_x_m", "rx_offset_m",
            "rx_heights_m", "rx_lateral_step_m", "rx_lateral_margin_m"]
        with pytest.raises(TypeError):
            CabinLayout(seats_per_row=4)


class TestTraceScenario:
    def test_deterministic_and_ordered(self):
        scene = build_scenario(ScenarioPreset.BL, layout=small_layout(), max_reflections=1)
        budget = LinkBudget()
        a = trace_scenario(scene, budget)
        b = trace_scenario(scene, budget)
        assert a.paths == b.paths and a.records == b.records
        for i, rec in enumerate(a.records):
            assert rec.rx_id == i
            assert rec.position_m == tuple(scene.rx_grid[i])

    def test_records_are_views_of_one_table(self):
        scene = build_scenario(ScenarioPreset.BL, layout=small_layout(), max_reflections=1)
        ds = trace_scenario(scene, LinkBudget())
        bases = {id(rec.paths.power_dbm.base) for rec in ds.records if len(rec.paths)}
        assert len(bases) == 1
        assert sum(len(rec.paths) for rec in ds.records) == len(ds.records[0].paths.power_dbm.base)

    def test_receiver_batches_do_not_change_output(self):
        # each receiver's paths depend only on its own segments, not on which
        # other receivers share a slab-test batch
        scene = build_scenario(ScenarioPreset.BL, layout=small_layout(), max_reflections=2)
        budget = LinkBudget()
        full = trace_scenario(scene, budget)
        for idx in (np.arange(1, scene.rx_grid.shape[0], 3), np.array([5])):
            part = trace_scenario(dataclasses.replace(scene, rx_grid=scene.rx_grid[idx]), budget)
            assert [rec.paths for rec in part.records] == [full.records[i].paths for i in idx]

    def test_bl_los_ratio_strictly_between_0_and_1(self):
        scene = build_scenario(ScenarioPreset.BL, layout=small_layout(), max_reflections=0)
        ds = trace_scenario(scene, LinkBudget())
        n_los = len(records_of(ds, Condition.LOS))
        assert 0 < n_los < len(ds.records)

    def test_emv_los_count_at_least_bl(self):
        layout = small_layout()
        budget = LinkBudget()
        bl = trace_scenario(build_scenario("BL", layout=layout, max_reflections=0), budget)
        emv = trace_scenario(build_scenario("EmV", layout=layout, max_reflections=0), budget)
        assert len(records_of(emv, Condition.LOS)) >= len(records_of(bl, Condition.LOS))

    def test_full_grid_dataset_round_trips(self, tmp_path):
        from idschan.pathdata import load_dataset, save_dataset

        scene = build_scenario(ScenarioPreset.EM_V, max_reflections=0)
        ds = trace_scenario(scene, LinkBudget())
        assert len(ds.records) == 2400
        path = tmp_path / "emv.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.records == ds.records
        assert back.link_budget == ds.link_budget


class TestSceneJson:
    CFG = {
        "name": "json-box",
        "cabin_dims_m": [6.0, 4.0, 2.4],
        "materials": {"foam": {"eps_re": 1.5, "eps_im": -0.01}},
        "walls": {"all": "metal_pec", "floor": "foam"},
        "tx_m": [0.2, 1.7, 2.1],
        "rx_grid": {"rows": 2, "heights_m": [0.7], "lateral_step_m": 1.0,
                    "lateral_margin_m": 0.5, "first_row_x_m": 2.0, "row_pitch_m": 1.5},
        "blockers": [
            {"min_m": [2.0, 1.0, 0.0], "max_m": [2.5, 1.5, 1.2], "material": "nylon", "label": "Seat"}
        ],
        "max_reflections": 1,
        "sensitivity_dbm": -100.0,
    }

    def test_build_and_trace(self):
        scene, budget = scene_from_json(self.CFG)
        assert budget == LinkBudget(sensitivity_dbm=-100.0)
        assert scene.wall_materials["floor"].name == "foam"
        assert scene.wall_materials["ceiling"] == PEC_METAL
        assert len(scene.blockers) == 1
        ds = trace_scenario(scene, budget)
        assert len(ds.records) == scene.rx_grid.shape[0]

    def test_unknown_material_rejected(self):
        cfg = dict(self.CFG, walls={"all": "vibranium"})
        with pytest.raises(GeometryError, match="vibranium"):
            scene_from_json(cfg)

    def test_file_round_trip(self, tmp_path):
        import json

        p = tmp_path / "scene.json"
        p.write_text(json.dumps(self.CFG))
        scene, _ = scene_from_json(p)
        assert scene.name == "json-box"


class TestSceneValidation:
    def test_tx_on_wall_rejected(self):
        with pytest.raises(GeometryError, match="TX"):
            empty_box(tx=(0.0, 2.0, 1.5))

    def test_material_sign_convention(self):
        with pytest.raises(ValueError):
            Material("bad", 2.0 + 0.5j)
        with pytest.raises(ValueError):
            Material("thin", 0.5 - 0.1j)

    @pytest.mark.parametrize("eps", [complex(math.nan, -0.1), complex(2.0, math.nan),
                                     complex(math.inf, -0.1), complex(2.0, -math.inf)])
    def test_non_finite_permittivity_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            Material("bad", eps)

    def test_all_materials_present(self):
        assert set(MATERIALS) == {
            "metal_pec", "glass_carbon_composite", "human_skin", "nylon", "glass"
        }
        assert MATERIALS["human_skin"].permittivity == 19.3 - 19.5j
        assert MATERIALS["nylon"].permittivity == 3.01 - 0.021j
        assert MATERIALS["glass_carbon_composite"].permittivity == 4.50 - 0.05j


@pytest.fixture(scope="module")
def many_blockers():
    """20,000 thin blockers in a ceiling corner of the BL cabin, clear of its receivers."""
    return tuple(Blocker((0.01 + 1e-5 * k, 0.01, 2.0), (0.01 + 1e-5 * k + 1e-6, 0.02, 2.01)) for k in range(20_000))


class TestSceneValidationRejects:
    """Scene, Blocker and LinkBudget reject non-finite and wrongly shaped inputs, NaN included."""

    def scene(self, **kwargs):
        base = dict(name="box", cabin_dims_m=(5.0, 4.0, 3.0), wall_materials=pec_walls(), blockers=(),
                    tx_position_m=(1.0, 2.0, 1.5), rx_grid=[(2.0, 2.0, 1.5)], max_reflections=0)
        return Scene(**{**base, **kwargs})

    @pytest.mark.parametrize("kwargs, match", [
        (dict(carrier_hz=math.nan), "carrier_hz"),
        (dict(carrier_hz=math.inf), "carrier_hz"),
        (dict(carrier_hz=0.0), "carrier_hz"),
        (dict(max_reflections=2.7), "max_reflections"),
        (dict(max_reflections=-1), "max_reflections"),
        (dict(cabin_dims_m=(5.0, math.nan, 3.0)), "cabin_dims_m"),
        (dict(cabin_dims_m=(5.0, math.inf, 3.0)), "cabin_dims_m"),
        (dict(cabin_dims_m=(5.0, 4.0)), "cabin_dims_m"),
        (dict(tx_position_m=(1.0, math.nan, 1.5)), "TX"),
        (dict(tx_position_m=(1.0, 2.0)), "TX"),
        (dict(rx_grid=np.empty((0, 3))), "rx_grid"),
        (dict(rx_grid=[(2.0, 2.0)]), "rx_grid"),
        (dict(rx_grid=[(2.0, 2.0, 1.5), (2.0, math.inf, 1.5)]), "RX 1"),
        (dict(max_reflections=MAX_REFLECTIONS + 1), "max_reflections"),
        (dict(max_reflections=True), "max_reflections"),  # a bool, as the JSON reader and the flag reject it
    ])
    def test_rejected(self, kwargs, match):
        # the carrier is a field of the link budget, the rest are fields of the scene
        build, error = (LinkBudget, ValueError) if "carrier_hz" in kwargs else (self.scene, GeometryError)
        with pytest.raises(error, match=match):
            build(**kwargs)

    def test_max_reflections_bound_reached_by_replace(self):
        scene = self.scene(max_reflections=MAX_REFLECTIONS)
        with pytest.raises(GeometryError, match="max_reflections"):
            dataclasses.replace(scene, max_reflections=12)

    def test_tx_inside_blocker_rejected(self):
        with pytest.raises(GeometryError, match="TX .* inside blocker"):
            self.scene(blockers=(Blocker((0.5, 1.5, 1.0), (1.5, 2.5, 2.0)),))

    def test_check_of_many_blockers_in_bounded_memory(self, many_blockers):
        base = build_scenario(ScenarioPreset.BL)
        assert base.rx_grid.shape == (2400, 3)
        tracemalloc.start()
        try:
            dataclasses.replace(base, blockers=many_blockers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (2400, 20000, 3) comparison at once peaked at 241 MB
        assert peak <= 16 * 2**20, f"building the scene peaked at {peak / 2**20:.1f} MB"

    def test_check_names_the_first_bad_point_and_the_first_blocker_holding_it(self, many_blockers, monkeypatch):
        base = build_scenario(ScenarioPreset.BL)
        step = tracer._CHECK_PAIRS // len(many_blockers)  # 52 points a block
        first, later = 3 * step + 5, 30 * step + 1  # in the 4th and the 31st block
        blockers = list(many_blockers)
        # point ``later`` lies in blocker 3, point ``first`` in blockers 15000 and 19999
        for j, point in ((3, later), (15_000, first), (19_999, first)):
            blockers[j] = Blocker(tuple(base.rx_grid[point] - 0.01), tuple(base.rx_grid[point] + 0.01), label=f"B{j}")
        at = tuple(base.rx_grid[first].tolist())
        message = f"^RX {first} at {re.escape(str(at))} lies inside blocker B15000 "
        for pairs in (1, 3 * len(blockers) - 1, tracer._CHECK_PAIRS, 2**40):  # 1, 2, 52 points a block, or all
            monkeypatch.setattr(tracer, "_CHECK_PAIRS", pairs)
            with pytest.raises(GeometryError, match=message):
                dataclasses.replace(base, blockers=tuple(blockers))

    @pytest.mark.parametrize("lo, hi", [
        ((math.nan, 1.0, 0.0), (2.0, 2.0, 1.0)),
        ((0.0, 1.0, 0.0), (2.0, math.inf, 1.0)),
        ((0.0, 1.0), (2.0, 2.0)),
        ((0.0, 1.0, 0.0), (0.0, 2.0, 1.0)),
    ])
    def test_blocker_rejected(self, lo, hi):
        with pytest.raises(GeometryError, match="blocker"):
            Blocker(lo, hi)

    def test_trace_link_receiver_checked_like_the_grid(self):
        scene = self.scene(blockers=(Blocker((2.5, 1.5, 1.0), (3.5, 2.5, 2.0)),))
        for rx in ((math.nan, 2.0, 1.5), (3.5, 2.0, 1.5), (5.0, 2.0, 1.5)):
            with pytest.raises(GeometryError, match="RX"):
                trace_one_rx(scene, rx, LinkBudget())

    def test_layout_grid_bounded(self):
        with pytest.raises(GeometryError, match="rx_lateral_step_m"):
            CabinLayout(rx_lateral_step_m=0.0)
        with pytest.raises(GeometryError, match="rows"):
            CabinLayout(rx_lateral_step_m=1e-300)
        with pytest.raises(GeometryError, match="rows"):
            CabinLayout(rows=0)


def _cfg(**top):
    cfg = copy.deepcopy(TestSceneJson.CFG)
    cfg.update(top)
    return cfg


def _edited(path, value=None, delete=False):
    """A copy of TestSceneJson.CFG with the entry at ``path`` replaced or deleted."""
    cfg = copy.deepcopy(TestSceneJson.CFG)
    parent = reduce(getitem, path[:-1], cfg)
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


class TestSceneJsonRejects:
    """Malformed configs raise GeometryError naming the offending key or location."""

    @pytest.mark.parametrize("cfg, location", [
        (_cfg(rx_grdi={"rows": 1}), "rx_grdi"),
        (_edited(("rx_grid", "heights"), [0.7]), r"rx_grid\.heights"),
        (_edited(("blockers", 0, "min_m"), [math.nan, 1.0, 0.0]), r"blockers\[0\]\.min_m"),
        (_cfg(carrier_hz=math.nan), "carrier_hz"),
        (_cfg(carrier_hz=math.inf), "carrier_hz"),
        (_cfg(carrier_hz=-math.inf), "carrier_hz"),
        (_cfg(max_reflections=2.7), "max_reflections"),
        (_edited(("rx_grid", "lateral_step_m"), 0), "lateral_step_m"),
        (_edited(("rx_grid", "lateral_step_m"), math.nan), "lateral_step_m"),
        (_edited(("rx_grid", "rows"), 0), "rows"),
        (_cfg(walls=["metal_pec"]), "walls"),
        (_cfg(rx_grid=[2, 0.7]), "rx_grid"),
        (_cfg(tx_m=[0.2, 1.7]), "tx_m"),
        (_cfg(cabin_dims_m=[6.0, 4.0]), "cabin_dims_m"),
        (_edited(("blockers", 0, "min_m"), None, delete=True), r"blockers\[0\]\.min_m"),
        (_edited(("blockers", 0, "max_m"), [2.0, 1.5, 1.2]), r"blockers\[0\]"),
        (_edited(("blockers", 0, "colour"), "red"), r"blockers\[0\]\.colour"),
        (_edited(("materials", "foam", "sigma"), 1.0), r"materials\.foam\.sigma"),
        (_edited(("materials", "foam", "eps_re"), 0.5), r"materials\.foam"),
        (_edited(("materials", "foam", "eps_im"), None, delete=True), r"materials\.foam\.eps_im"),
        (_edited(("walls", "sideways"), "foam"), r"walls\.sideways"),
        (_edited(("blockers", 0, "material"), "vibranium"), r"blockers\[0\]\.material"),
        (_edited(("rx_grid", "rows"), True), "rows"),
        (_cfg(name=5), "name"),
        (_cfg(sensitivity_dbm="-100"), "sensitivity_dbm"),
        (_cfg(carrier_hz=0.0), "carrier_hz"),
        (_cfg(carrier_hz=-28e9), "carrier_hz"),
        (_cfg(max_reflections=MAX_REFLECTIONS + 1), "max_reflections"),
        # the receiver count is checked on the grid that rx_points builds: 3 lateral positions, not 2.5
        ({"cabin_dims_m": [50000, 4, 2.4],
          "rx_grid": {"rows": 40000, "heights_m": [1.0], "lateral_step_m": 1.0, "lateral_margin_m": 1.25}},
         "^rx_grid: "),
        ({"rx_grid": {"lateral_margin_m": 2.5}}, "^rx_grid: "),  # overlapping margins leave no position
        ({"rx_grid": {"lateral_step_m": 1e-320}}, "^rx_grid: "),  # the lateral count overflows to inf
    ])
    def test_rejected_with_location(self, cfg, location):
        with pytest.raises(GeometryError, match=location):
            scene_from_json(cfg)

    def test_long_rejected_value_is_quoted_short(self):
        with pytest.raises(GeometryError, match=r"^tx_m must be a list of 3 finite numbers, got \[0\.5, .*\.\.\.\]$"):
            scene_from_json(_cfg(tx_m=[0.5] * 100_000))

    def test_file_with_nan_literal_rejected(self, tmp_path):
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(_cfg(carrier_hz=math.nan)))  # written as the NaN literal
        with pytest.raises(GeometryError, match="carrier_hz"):
            scene_from_json(p)

    def test_unreadable_file_rejected(self, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):
            with pytest.raises(GeometryError, match=re.escape(str(path))):
                scene_from_json(path)

    def test_tiny_lateral_step_rejected_before_building_the_grid(self):
        with pytest.raises(GeometryError, match="receivers"):
            scene_from_json(_edited(("rx_grid", "lateral_step_m"), 1e-300))

    def test_every_rx_grid_key_sets_its_layout_field(self):
        rx_grid = {"rows": 2, "heights_m": [0.7, 0.9], "lateral_step_m": 1.0, "lateral_margin_m": 0.5,
                   "first_row_x_m": 2.0, "row_pitch_m": 1.5, "rx_offset_m": 0.5}
        scene, _ = scene_from_json(_cfg(rx_grid=rx_grid, blockers=[]))
        layout = CabinLayout(cabin_dims_m=(6.0, 4.0, 2.4), rows=2, rx_heights_m=(0.7, 0.9),
                             rx_lateral_step_m=1.0, rx_lateral_margin_m=0.5, first_row_x_m=2.0,
                             row_pitch_m=1.5, rx_offset_m=0.5)
        assert np.array_equal(scene.rx_grid, layout.rx_points())

    def test_same_scene_as_the_preset_builder(self):
        # a config spelling out a preset's layout, walls and blockers gives the preset's scene
        layout = CabinLayout(rows=2, rx_heights_m=(0.7,), rx_lateral_step_m=0.5, rx_lateral_margin_m=0.2)
        preset = build_scenario(ScenarioPreset.BL, layout=layout, max_reflections=1)
        cfg = {
            "name": "BL", "max_reflections": 1, "walls": {"all": "metal_pec"},
            "rx_grid": {"rows": 2, "heights_m": [0.7], "lateral_step_m": 0.5, "lateral_margin_m": 0.2},
            "blockers": [{"min_m": list(b.min_m), "max_m": list(b.max_m),
                          "material": b.material.name, "label": b.label} for b in preset.blockers],
        }
        scene, _ = scene_from_json(cfg)
        assert np.array_equal(scene.rx_grid, preset.rx_grid)
        assert (scene.name, scene.tx_position_m, scene.blockers, scene.wall_materials) == \
            (preset.name, preset.tx_position_m, preset.blockers, preset.wall_materials)


@settings(max_examples=150, deadline=None)
@given(st.integers(-1, 4000), st.lists(st.floats(0.1, 2.3), max_size=3),
       st.one_of(st.floats(1e-3, 5.0), st.sampled_from([1e-300, 1e-320, 5e-324])),
       st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False, allow_infinity=False)),
       st.one_of(st.floats(0.5, 50.0), st.floats(0.5, 1e308)))
def test_built_layout_has_its_receiver_count(rows, heights, step, margin, width):
    try:
        layout = CabinLayout(cabin_dims_m=(13.5, width, 2.4), rows=rows, rx_heights_m=tuple(heights),
                             rx_lateral_step_m=step, rx_lateral_margin_m=margin)
    except GeometryError:
        return
    lateral = round((width - 2 * margin) / step) + 1  # margin to margin, one step apart
    assert len(layout.rx_points()) == rows * len(heights) * lateral <= MAX_RECEIVERS


def _readme_scene_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Scene config (JSON)")[1].split("\n## ")[0]


class TestReadmeSceneConfig:
    def test_example_builds(self):
        example = re.search(r"```json\n(.*?)```", _readme_scene_section(), re.S).group(1)
        scene, budget = scene_from_json(json.loads(example))
        assert scene.name == "my-cabin"
        assert budget == LinkBudget(sensitivity_dbm=-120.0)

    def test_every_accepted_key_is_documented(self):
        from idschan import tracer

        documented = set(re.findall(r"`([a-z_]+)`", _readme_scene_section()))
        accepted = (tracer._SCENE_KEYS | tracer._MATERIAL_KEYS | tracer._BLOCKER_KEYS
                    | tracer._WALL_KEYS | set(tracer._RX_GRID_FIELDS) | set(tracer._RX_GRID_FIELDS.values()))
        assert accepted <= documented


# --------------------------------------------------------------------------
# scene-config fuzz: every result is a finite Scene or a GeometryError
# --------------------------------------------------------------------------

_FUZZ_CFG = {
    "name": "fuzz",
    "cabin_dims_m": [6.0, 4.0, 2.4],
    "materials": {"foam": {"eps_re": 1.5, "eps_im": -0.01, "thickness_cm": 1.0}, "steel": {"pec": True}},
    "walls": {"all": "metal_pec", "floor": "foam", "left": "steel"},
    "tx_m": [0.2, 1.7, 2.1],
    "rx_grid": {"rows": 2, "heights_m": [0.7], "lateral_step_m": 1.0, "lateral_margin_m": 0.5,
                "first_row_x_m": 2.0, "row_pitch_m": 1.5, "rx_offset_m": 0.75},
    "blockers": [{"min_m": [2.0, 1.0, 0.0], "max_m": [2.5, 1.5, 1.2], "material": "nylon", "label": "Seat"}],
    "max_reflections": 1,
    "carrier_hz": 28e9,
    "sensitivity_dbm": -100.0,
}
_FUZZ_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 2.7, 1e-300, 5e-324, 1e308, 10**400, -(10**400), True, False]),
)
_FUZZ_KEY = st.sampled_from(["rows", "min_m", "eps_re", "pec", "all", "floor", "foam", "nylon", "bogus", ""])
_FUZZ_VALUE = st.recursive(
    st.one_of(_FUZZ_NUMBER, st.none(), st.text(max_size=3),
              st.sampled_from(["nylon", "foam", "steel", "metal_pec", "vibranium"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_FUZZ_KEY, inner, max_size=3)),
    max_leaves=6,
)


def _node_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


def _mutate(cfg, path, op, key, value, length):
    """Apply one edit at ``path``: set or delete it, add a key to an object, or resize a list."""
    node = reduce(getitem, path, cfg)
    if op == "set":
        if not path:
            return value
        reduce(getitem, path[:-1], cfg)[path[-1]] = value
    elif op == "delete" and path:
        del reduce(getitem, path[:-1], cfg)[path[-1]]
    elif op == "add" and isinstance(node, dict):
        node[key] = value
    elif op == "resize" and isinstance(node, list):
        node[:] = (node * length)[:length] if node else [value] * length
    return cfg


def _assert_finite_scene(scene, budget):
    assert isinstance(scene, Scene)
    assert scene.rx_grid.ndim == 2 and scene.rx_grid.shape[1] == 3 and len(scene.rx_grid) > 0
    assert np.isfinite(scene.rx_grid).all()
    for point in (scene.cabin_dims_m, scene.tx_position_m,
                  *(corner for b in scene.blockers for corner in (b.min_m, b.max_m))):
        assert len(point) == 3 and all(math.isfinite(v) for v in point)
    assert isinstance(scene.max_reflections, int) and 0 <= scene.max_reflections <= MAX_REFLECTIONS
    assert set(scene.wall_materials) == set(FACES)
    assert isinstance(budget, LinkBudget) and budget.carrier_hz > 0
    assert all(math.isfinite(v) for v in budget.to_dict().values())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scene_json_fuzz_rejects_typed_and_accepts_only_finite(data):
    cfg = copy.deepcopy(_FUZZ_CFG)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_node_paths(cfg))))
        cfg = _mutate(cfg, path, data.draw(st.sampled_from(["set", "set", "delete", "add", "resize"])),
                      data.draw(_FUZZ_KEY), data.draw(_FUZZ_VALUE), data.draw(st.integers(0, 4)))
    try:
        scene, budget = scene_from_json(cfg)
    except GeometryError:
        return
    _assert_finite_scene(scene, budget)


# --------------------------------------------------------------------------
# the scene config and the dataset sidecar: one JSON reader
# --------------------------------------------------------------------------

_TINY_CFG = {"rx_grid": {"rows": 1, "heights_m": [1.0], "lateral_step_m": 1.0, "lateral_margin_m": 1.0}}  # 3 rx
_BUDGET_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([0, -0.0, 5e-324, 10**308, 2**1024, 10**400, -(10**400), True, False, None, "28e9", ""]),
    st.text(max_size=4),
    st.lists(st.one_of(st.floats(-5.0, 5.0), st.integers()), max_size=3),
    st.dictionaries(st.sampled_from(["carrier_hz", "x", ""]), st.floats(-5.0, 5.0), max_size=2),
)


def _write_dataset_csv(folder: Path) -> Path:
    """A one-path dataset CSV, ``ds.csv``, without its sidecar ``ds.meta.json``."""
    path = folder / "ds.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n")
    return path


@given(key=st.sampled_from(["carrier_hz", "sensitivity_dbm"]), value=_BUDGET_VALUE)
def test_budget_value_read_alike_in_scene_config_and_sidecar(tmp_path_factory, key, value):
    """A JSON value for a link budget key gives the same float in the scene config and in the
    sidecar's link_budget, or both reject it and name the key."""
    try:
        _, budget = scene_from_json({**_TINY_CFG, key: value})
        from_scene = getattr(budget, key)
    except GeometryError as exc:
        from_scene = str(exc)
    path = _write_dataset_csv(tmp_path_factory.mktemp("budget"))
    meta = {"scenario_name": "x", "tx_position_m": [0, 0, 1], "link_budget": {key: value}}
    path.with_name("ds.meta.json").write_text(json.dumps(meta))
    try:
        from_sidecar = getattr(load_dataset(path).link_budget, key)
    except DatasetFormatError as exc:
        from_sidecar = str(exc)
    if isinstance(from_scene, float):
        assert type(from_sidecar) is float and repr(from_sidecar) == repr(from_scene)
    else:
        assert isinstance(from_sidecar, str) and from_sidecar.startswith("ds.meta.json: ")
        assert key in from_scene and key in from_sidecar


# a document nested too deep for the parser, a directory, and bytes that are not UTF-8
_UNREADABLE = {
    "deep": lambda path: path.write_text("[" * 200_000 + "]" * 200_000),
    "directory": Path.mkdir,
    "not-utf8": lambda path: path.write_bytes(b'{"name": "\xff", "scenario_name": "\xff"}'),
}


@pytest.mark.parametrize("write", _UNREADABLE.values(), ids=_UNREADABLE.keys())
def test_unreadable_document_raises_its_typed_error_naming_the_file(tmp_path, write):
    scene = tmp_path / "scene.json"
    write(scene)
    with pytest.raises(GeometryError, match=f"^{re.escape(str(scene))}: "):
        scene_from_json(scene)
    dataset = _write_dataset_csv(tmp_path)
    write(tmp_path / "ds.meta.json")
    with pytest.raises(DatasetFormatError, match=r"^ds\.meta\.json: "):
        load_dataset(dataset)
