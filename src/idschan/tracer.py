"""Image-method specular ray tracer for box cabins with dielectric walls.

The cabin is a rectangular box with one material per face. Specular paths are
enumerated exactly by mirroring the TX across face sequences up to a maximum
reflection order; sequences that meet one face twice with only other axes
between have no path and are not enumerated. Blockers (seats, passengers) are
axis-aligned boxes that act as perfect absorbers: any path segment passing
through one is dropped, and no reflections off blocker faces are generated.
The blocker test is ``geometry.segments_hit_boxes`` with the blockers clustered,
and their shared bounds found, once per scene; each path's segments are tested
from the RX side. The trace runs on one thread. Curved fuselages are
approximated by the box; only the material and occupancy axes of the scenario
comparison are synthesized.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import ClassVar

import numpy as np

from .geometry import (
    SPEED_OF_LIGHT,
    box_clusters,
    mirror_point,
    segments_hit_boxes,
    spherical_angles_deg,
    wrap_azimuth_deg,
)
from .pathdata import (
    Interaction,
    LinkBudget,
    PathTable,
    Provenance,
    ScenarioDataset,
    _at,
    _budget_from_json,
    _coerce,
    _json_get,
    _located,
    _read_json,
)


class GeometryError(ValueError):
    """Scene configuration that cannot be traced (TX/RX outside cabin, inside a blocker, ...)."""


# --------------------------------------------------------------------------
# materials and Fresnel reflection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Material:
    """Wall/blocker material with complex relative permittivity eps' - j eps''."""

    name: str
    permittivity: complex = 1.0 + 0.0j
    thickness_cm: float = 0.0
    is_pec: bool = False

    def __post_init__(self):
        if not self.is_pec:
            if not (1.0 <= self.permittivity.real < math.inf):
                raise ValueError(f"{_at('', self.name)}: Re(eps) must be finite and >= 1 for a dielectric")
            if not (-math.inf < self.permittivity.imag <= 0.0):
                raise ValueError(f"{_at('', self.name)}: loss must be stored as a finite negative imaginary part")


PEC_METAL = Material("metal_pec", 1.0 + 0.0j, 0.0, is_pec=True)
GLASS_CARBON = Material("glass_carbon_composite", 4.50 - 0.05j, 0.3)
HUMAN_SKIN = Material("human_skin", 19.3 - 19.5j, 0.1)
NYLON = Material("nylon", 3.01 - 0.021j, 0.25)
GLASS = Material("glass", 6.27 - 0.1469j, 0.3)

MATERIALS: dict[str, Material] = {
    m.name: m for m in (PEC_METAL, GLASS_CARBON, HUMAN_SKIN, NYLON, GLASS)
}


def _fresnel_gain_db(material: Material, cos_inc: np.ndarray, pol: str) -> np.ndarray:
    """Per-bounce power gain 20*log10|Gamma| for an array of incidence cosines;
    TE is the field transverse to the plane of incidence, TM parallel to it."""
    if material.is_pec:
        return np.zeros_like(cos_inc)
    eps = material.permittivity
    ci = cos_inc.astype(complex)
    root = np.sqrt(eps - (1.0 - cos_inc**2))
    if pol == "TE":
        gamma = (ci - root) / (ci + root)
    else:
        gamma = (eps * ci - root) / (eps * ci + root)
    mag = np.abs(gamma)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mag)


# --------------------------------------------------------------------------
# scene
# --------------------------------------------------------------------------

# Axis-major faces: face i is the plane of axis i // 2 at side i % 2, where side 0
# is the plane at coordinate 0 and side 1 the plane at the cabin dimension.
# Vertical TX-RX polarization maps to TM on floor/ceiling (axis 2) bounces and
# TE on the side and end walls.
FACES: tuple[str, ...] = ("front", "back", "left", "right", "floor", "ceiling")


@dataclass(frozen=True)
class Blocker:
    """Axis-aligned absorbing box with an informational material and label."""

    min_m: tuple[float, float, float]
    max_m: tuple[float, float, float]
    material: Material = NYLON
    label: str = "Seat"

    def __post_init__(self):
        lo, hi = np.asarray(self.min_m, dtype=float), np.asarray(self.max_m, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,) or not np.all((-math.inf < lo) & (lo < hi) & (hi < math.inf)):
            raise GeometryError(f"blocker min {self.min_m} not finite and strictly below max {self.max_m}")


_CHECK_PAIRS = 2**20  # point-blocker pairs a scene check tests at once; a preset grid fits one block


@dataclass(frozen=True)
class Scene:
    """Cabin geometry, materials, blockers and the receiver grid to trace."""

    name: str
    cabin_dims_m: tuple[float, float, float]
    wall_materials: dict[str, Material]
    blockers: tuple[Blocker, ...]
    tx_position_m: tuple[float, float, float]
    rx_grid: np.ndarray
    max_reflections: int = 3

    def __post_init__(self):
        object.__setattr__(self, "rx_grid", np.atleast_2d(np.asarray(self.rx_grid, dtype=float)))
        order = self.max_reflections
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or not 0 <= order <= MAX_REFLECTIONS:
            raise GeometryError(f"max_reflections must be an integer from 0 to {MAX_REFLECTIONS}, got {order!r}")
        if set(self.wall_materials) != set(FACES):
            raise GeometryError(f"wall_materials must name exactly the faces {FACES}")
        dims = np.asarray(self.cabin_dims_m, dtype=float)
        if dims.shape != (3,) or not np.all((0.0 < dims) & (dims < math.inf)):
            raise GeometryError(f"cabin_dims_m must be 3 positive finite lengths, got {self.cabin_dims_m}")
        tx, rx = np.asarray(self.tx_position_m, dtype=float), self.rx_grid
        if tx.shape != (3,) or rx.ndim != 2 or rx.shape[1] != 3 or len(rx) == 0:
            raise GeometryError(f"TX must be one 3-D point, rx_grid non-empty (N, 3): {tx.shape}, {rx.shape}")
        self._check_points(tx[None, :], "TX")
        self._check_points(rx, "RX {}")
        too_close = np.linalg.norm(rx - tx, axis=1) < 1e-9
        if too_close.any():
            raise GeometryError(f"RX {int(np.nonzero(too_close)[0][0])} coincides with the TX")

    def _check_points(self, points: np.ndarray, who: str) -> None:
        """Require every (N, 3) point strictly inside the cabin and outside every
        blocker's closed box, in blocks of ``_CHECK_PAIRS`` point-blocker pairs;
        ``who.format(i)`` names the first bad point i, and the first blocker holding it."""
        dims = np.asarray(self.cabin_dims_m, dtype=float)
        outside = ~(np.all(points > 0.0, axis=1) & np.all(points < dims, axis=1))
        if outside.any():
            i = int(np.argmax(outside))
            raise GeometryError(f"{who.format(i)} at {tuple(points[i].tolist())} is not strictly "
                                f"inside the cabin {tuple(dims.tolist())}")
        if self.blockers:
            boxes = np.array([(b.min_m, b.max_m) for b in self.blockers])  # (M, 2, 3)
            step = max(1, _CHECK_PAIRS // len(boxes))
            for lo in range(0, len(points), step):
                block = points[lo:lo + step, None]
                contained = np.all(block >= boxes[:, 0], axis=2) & np.all(block <= boxes[:, 1], axis=2)
                if contained.any():
                    i, j = map(int, np.argwhere(contained)[0])
                    b = self.blockers[j]
                    raise GeometryError(f"{who.format(lo + i)} at {tuple(points[lo + i].tolist())} lies inside "
                                        f"blocker {b.label} {b.min_m}")


def fspl_db(distance_m: float | np.ndarray, wavelength_m: float):
    """Free-space path loss 20*log10(4 pi d / lambda)."""
    return 20.0 * np.log10(4.0 * math.pi * np.asarray(distance_m, dtype=float) / wavelength_m)


# --------------------------------------------------------------------------
# image-method path enumeration
# --------------------------------------------------------------------------


def reflection_sequences(max_order: int) -> list[tuple[str, ...]]:
    """All face sequences up to max_order whose reflections on each axis
    alternate between that axis's two faces.

    The empty sequence stands for the direct path. Order is deterministic:
    by reflection count, then lexicographic in FACES index. A ray that leaves
    a face moves away from it until it meets the opposite face of that axis,
    so a sequence like front, left, front has no path, and neither has an
    immediate repeat. In ``_trace_sequence`` the first such repeat, traced
    from the RX, puts the point of the later bounce exactly on the plane and
    every point up to the earlier bounce between that plane and the image, so
    the earlier bounce's ``t`` is <= 0, infinite or NaN, and no row would
    survive; those sequences are not listed. Each sequence of order k + 1
    extends one of order k by a face other than the last face of its axis in
    that sequence.
    """
    seqs, level = [()], [()]
    for _ in range(max_order):  # extending level k in FACES order keeps level k + 1 lexicographic
        grown = []
        for seq in level:
            last = {FACES.index(face) // 2: face for face in seq}  # each axis's last face
            grown += [seq + (face,) for i, face in enumerate(FACES) if last.get(i // 2) != face]
        seqs += grown
        level = grown
    return seqs


_T_EPS = 1e-12


def _trace_sequence(scene: Scene, rx: np.ndarray, seq: tuple[str, ...]):
    """Geometry of one face sequence, traced on the live receivers only.

    Each bounce, from the RX back to the TX, keeps the receivers whose ray
    meets the bounce's face plane strictly between its ends. In exact
    arithmetic that also keeps every point within its face: unfolded, the ray
    is one line from the RX to the last image, and the ``t`` windows put its
    crossings of the sequence's planes in the sequence's order. On an axis
    whose faces alternate, those planes are every lattice plane the line
    crosses on that axis, so at each bounce the line lies in the cell that
    folds onto the cabin; a sequence whose faces do not alternate would keep
    no row (``reflection_sequences``). Returns the indices into ``rx`` of the
    receivers with a valid path, their unfolded lengths (m,) and their points
    (m, k+2, 3), TX first.
    """
    dims = np.asarray(scene.cabin_dims_m, dtype=float)
    images = [np.asarray(scene.tx_position_m, dtype=float)]
    for face in seq:
        axis, side = divmod(FACES.index(face), 2)
        images.append(mirror_point(images[-1], axis, side * dims[axis]))
    rows = np.arange(len(rx))
    points = np.empty((len(rx), len(seq) + 2, 3))
    points[:, 0], points[:, -1] = images[0], rx
    for j in range(len(seq) - 1, -1, -1):
        axis, side = divmod(FACES.index(seq[j]), 2)
        plane_c, s, cur = side * dims[axis], images[j + 1], points[:, j + 2]
        with np.errstate(all="ignore"):  # rows that divide by zero or overflow drop out below
            t = (plane_c - cur[:, axis]) / (s[axis] - cur[:, axis])
            p = cur + t[:, None] * (s[None, :] - cur)
        p[:, axis] = plane_c
        live = (t > _T_EPS) & (t < 1.0 - _T_EPS)
        points[:, j + 1] = p
        rows, points = rows[live], points[live]
    return rows, np.linalg.norm(points[:, -1] - images[-1], axis=1), points


def _trace_batch(scene: Scene, budget: LinkBudget) -> tuple[np.ndarray, PathTable]:
    """Trace every grid receiver in one pass. Returns the receiver index of
    every kept path and the table of those paths, sorted by receiver and then
    by face sequence. A path's tags follow from its sequence's length: one
    reflection per face, or the direct path for the empty sequence."""
    rx = scene.rx_grid
    lam = SPEED_OF_LIGHT / budget.carrier_hz
    box_min = np.array([b.min_m for b in scene.blockers], dtype=float).reshape(-1, 3)
    box_max = np.array([b.max_m for b in scene.blockers], dtype=float).reshape(-1, 3)
    clusters = box_clusters(box_min, box_max) if len(scene.blockers) > 0 else None
    seqs = reflection_sequences(scene.max_reflections)
    codes = ["+".join([Interaction.REFLECT.value] * k) or Interaction.DIRECT.value
             for k in range(scene.max_reflections + 1)]  # indexed by a path's reflection count

    found = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint8)) + (np.empty(0),) * 6]  # typed even when empty
    for seq in seqs:
        rows, lengths, points = _trace_sequence(scene, rx, seq)
        # drop paths whose segment j crosses a blocker, RX side first: the receivers sit among the
        # seats, so most blocked paths drop at the first test
        for j in range(len(seq), -1, -1):
            if rows.size == 0:
                break
            clear = ~segments_hit_boxes(points[:, j], points[:, j + 1], box_min, box_max, clusters=clusters)
            rows, lengths, points = rows[clear], lengths[clear], points[clear]
        if rows.size == 0:
            continue

        gains_db = np.zeros(rows.size)
        for j, face in enumerate(seq):
            axis = FACES.index(face) // 2
            seg = points[:, j + 1, :] - points[:, j, :]
            seg_len = np.linalg.norm(seg, axis=1)
            cos_inc = np.abs(seg[:, axis]) / np.where(seg_len > 0, seg_len, 1.0)
            cos_inc = np.clip(cos_inc, 0.0, 1.0)
            gains_db += _fresnel_gain_db(scene.wall_materials[face], cos_inc, "TM" if axis == 2 else "TE")

        power_dbm = budget.lossless_rx_dbm - fspl_db(lengths, lam) + gains_db
        heard = power_dbm >= budget.sensitivity_dbm
        if not heard.any():
            continue

        rows, lengths, points, power_dbm = rows[heard], lengths[heard], points[heard], power_dbm[heard]
        aod_az, aod_el = spherical_angles_deg(points[:, 1, :] - points[:, 0, :])
        aoa_az, aoa_el = spherical_angles_deg(points[:, -2, :] - points[:, -1, :])
        found.append((rows, np.full(rows.size, len(seq), np.uint8), power_dbm, lengths / SPEED_OF_LIGHT * 1e9,
                      wrap_azimuth_deg(aod_az), aod_el, wrap_azimuth_deg(aoa_az), aoa_el))
    # blocks come in sequence order and hold at most one row per receiver, so a stable sort by
    # receiver leaves each receiver's paths in sequence order
    owner, reflections, *columns = [np.concatenate(col) for col in zip(*found)]
    order = np.argsort(owner, kind="stable")
    owner = owner[order]
    return owner, PathTable(*(col[order] for col in columns), codes, reflections[order], lambda k: f"rx {owner[k]}")


def trace_scenario(scene: Scene, budget: LinkBudget) -> ScenarioDataset:
    """Trace every grid receiver on one thread; deterministic, record order = grid order."""
    n = scene.rx_grid.shape[0]
    owner, paths = _trace_batch(scene, budget)
    tx = tuple(float(v) for v in scene.tx_position_m)
    return ScenarioDataset(scene.name, tx, budget, range(n), scene.rx_grid, paths, np.bincount(owner, minlength=n),
                           Provenance.SYNTHETIC)


# --------------------------------------------------------------------------
# scenario presets
# --------------------------------------------------------------------------


class ScenarioPreset(Enum):
    """Cabin variants: metal vs composite shell, occupied vs empty."""

    BL = "BL"  # metal shell, fully occupied (hyperloop-style box)
    CV = "CV"  # glass-carbon composite shell, fully occupied
    REC_V = "RecV"  # metal rectangular wagon, fully occupied
    EM_V = "EmV"  # metal shell, seats only, no passengers


_PRESET_WALLS = {
    ScenarioPreset.BL: PEC_METAL,
    ScenarioPreset.CV: GLASS_CARBON,
    ScenarioPreset.REC_V: PEC_METAL,
    ScenarioPreset.EM_V: PEC_METAL,
}


# Larger receiver grids are rejected so that no layout exhausts memory; the presets hold 2400.
MAX_RECEIVERS = 100_000
# Higher orders are rejected so no trace runs for hours; this bounds the face sequences (7,261 at
# order 6, about 3.3x more per order), not the paths kept.
MAX_REFLECTIONS = 6


@dataclass(frozen=True)
class CabinLayout:
    """Default cabin geometry: 12 rows x 6 seats, 2400 receivers.

    The fields set the cabin size, the seat rows and the receiver grid. The
    seats, passengers and TX are fixed: two banks of three seats per row
    against the side walls, a passenger box on every seat, and the TX near the
    front wall under the ceiling. The box sizes and the default row pitch are
    placeholders chosen so receiver planes run 0.75 m ahead of each seat row
    without touching the previous row's boxes.
    """

    seats_per_row: ClassVar[int] = 6
    seat_size_m: ClassVar[tuple[float, float, float]] = (0.5, 0.5, 1.2)
    human_size_m: ClassVar[tuple[float, float, float]] = (0.35, 0.45, 0.9)
    human_z0_m: ClassVar[float] = 0.55
    seat_wall_gap_m: ClassVar[float] = 0.05
    tx_standoff_m: ClassVar[float] = 0.05
    tx_y_m: ClassVar[float] = 1.7
    tx_z_m: ClassVar[float] = 2.1

    cabin_dims_m: tuple[float, float, float] = (13.5, 4.0, 2.4)
    rows: int = 12
    row_pitch_m: float = 1.05
    first_row_x_m: float = 1.2
    rx_offset_m: float = 0.75
    rx_heights_m: tuple[float, ...] = (0.6, 0.7, 0.8, 0.9, 1.0)
    rx_lateral_step_m: float = 0.1
    rx_lateral_margin_m: float = 0.05

    def __post_init__(self):  # keeps rx_points() finite and bounded
        if not (self.rx_lateral_step_m > 0.0):
            raise GeometryError(f"rx_lateral_step_m must be positive, got {self.rx_lateral_step_m!r}")
        lateral = self._lateral_count()
        if not (self.rows >= 1 and 1 <= self.rows * len(self.rx_heights_m) * lateral <= MAX_RECEIVERS):
            raise GeometryError(f"need rows >= 1 and 1 to {MAX_RECEIVERS} receivers, got rows={self.rows!r} "
                                f"x {len(self.rx_heights_m)} heights x {lateral:g} lateral positions")

    def _lateral_count(self) -> int:
        """Receivers across the cabin per row and height, one step apart from margin to margin."""
        span = (self.cabin_dims_m[1] - 2 * self.rx_lateral_margin_m) / self.rx_lateral_step_m
        if not math.isfinite(span):
            raise GeometryError(f"need a finite number of lateral positions, got (width - 2 x "
                                f"rx_lateral_margin_m) / rx_lateral_step_m = {span!r}")
        return int(round(span)) + 1

    def seat_centers_y(self) -> list[float]:
        w = self.seat_size_m[1]
        left = [self.seat_wall_gap_m + w * (i + 0.5) for i in range(self.seats_per_row // 2)]
        return left + [self.cabin_dims_m[1] - y for y in reversed(left)]

    def row_x(self) -> list[float]:
        return [self.first_row_x_m + i * self.row_pitch_m for i in range(self.rows)]

    def rx_points(self) -> np.ndarray:
        lats = [self.rx_lateral_margin_m + i * self.rx_lateral_step_m for i in range(self._lateral_count())]
        pts = [
            (x - self.rx_offset_m, y, z)
            for x in self.row_x()
            for z in self.rx_heights_m
            for y in lats
        ]
        return np.array(pts, dtype=float)

    def _blocker_per_seat(self, size_m, z0_m: float, material: Material, label: str) -> list[Blocker]:
        sx, sy, sz = size_m
        return [Blocker((x - sx / 2, y - sy / 2, z0_m), (x + sx / 2, y + sy / 2, z0_m + sz), material, label)
                for x in self.row_x() for y in self.seat_centers_y()]

    def seat_blockers(self) -> list[Blocker]:
        return self._blocker_per_seat(self.seat_size_m, 0.0, NYLON, "Seat")

    def human_blockers(self) -> list[Blocker]:
        return self._blocker_per_seat(self.human_size_m, self.human_z0_m, HUMAN_SKIN, "Human")


def _layout_scene(layout: CabinLayout, tx_m=None, **scene_kwargs) -> Scene:
    """The one place a Scene is assembled: cabin and receiver grid from the
    layout, TX at ``tx_m`` or else at the layout's default position."""
    tx_m = tx_m or (layout.tx_standoff_m, layout.tx_y_m, layout.tx_z_m)
    return Scene(cabin_dims_m=layout.cabin_dims_m, tx_position_m=tx_m, rx_grid=layout.rx_points(),
                 **scene_kwargs)


def build_scenario(
    preset: ScenarioPreset | str,
    layout: CabinLayout | None = None,
    *,
    max_reflections: int = 3,
) -> Scene:
    """Scene for one of the preset scenarios, named after it, on the shared default layout."""
    preset = ScenarioPreset(preset)
    layout = layout or CabinLayout()
    wall = _PRESET_WALLS[preset]
    blockers = layout.seat_blockers()
    if preset is not ScenarioPreset.EM_V:
        blockers += layout.human_blockers()
    return _layout_scene(
        layout,
        name=preset.value,
        wall_materials={f: wall for f in FACES},
        blockers=tuple(blockers),
        max_reflections=max_reflections,
    )


# --------------------------------------------------------------------------
# JSON scene config
# --------------------------------------------------------------------------

# keys accepted in the config (carrier_hz and sensitivity_dbm are the LinkBudget fields it may set),
# in a material entry, in a blocker entry and in walls
_SCENE_KEYS = frozenset({"name", "cabin_dims_m", "materials", "walls", "tx_m", "rx_grid", "blockers",
                         "max_reflections", "carrier_hz", "sensitivity_dbm"})
_MATERIAL_KEYS = frozenset({"pec", "eps_re", "eps_im", "thickness_cm"})
_BLOCKER_KEYS = frozenset({"min_m", "max_m", "material", "label"})
_WALL_KEYS = frozenset({"all", *FACES})
# JSON rx_grid key -> the CabinLayout field it sets; its value takes the field's type
_RX_GRID_FIELDS = {"rows": "rows", "heights_m": "rx_heights_m", "lateral_step_m": "rx_lateral_step_m",
                   "lateral_margin_m": "rx_lateral_margin_m", "first_row_x_m": "first_row_x_m",
                   "row_pitch_m": "row_pitch_m", "rx_offset_m": "rx_offset_m"}
_LAYOUT_TYPES = {f.name: type(f.default) for f in fields(CabinLayout)}


def _material_from_json(entry, name: str) -> Material:
    where = _at("materials", name)
    entry = _coerce(entry, _MATERIAL_KEYS, where)
    pec = _json_get(entry, where, "pec", bool, False)
    eps = 1.0 + 0.0j if pec else complex(
        _json_get(entry, where, "eps_re", float), _json_get(entry, where, "eps_im", float))
    thickness_cm = _json_get(entry, where, "thickness_cm", float, 0.0)
    with _located(where):
        return Material(name, eps, thickness_cm, is_pec=pec)


def scene_from_json(source: str | Path | dict) -> tuple[Scene, LinkBudget]:
    """Build a Scene and its LinkBudget from a JSON config.

    ``carrier_hz`` and ``sensitivity_dbm`` fill the budget; its other fields
    keep their defaults. Unknown keys and malformed values raise GeometryError
    naming their location, e.g. ``blockers[0].min_m``; a file that cannot be
    read as JSON raises GeometryError naming the file.
    """
    with _located("", GeometryError):  # rejections below are ValueErrors naming their location
        if isinstance(source, (str, Path)):
            with _located(str(source)):
                source = _read_json(source)
        cfg = _coerce(source, _SCENE_KEYS, "")
        materials = dict(MATERIALS)
        for mname, entry in _json_get(cfg, "", "materials", dict, {}).items():
            materials[mname] = _material_from_json(entry, mname)

        def material(obj: dict, where: str, key: str, default: Material) -> Material:
            mname = _json_get(obj, where, key, str, None)
            if mname is not None and mname not in materials:
                raise GeometryError(f"unknown material {reprlib.repr(mname)} at {_at(where, key)} in scene config")
            return default if mname is None else materials[mname]

        rx_cfg = _json_get(cfg, "", "rx_grid", frozenset(_RX_GRID_FIELDS), {})
        layout_kwargs = {field: _json_get(rx_cfg, "rx_grid", key, _LAYOUT_TYPES[field])
                         for key, field in _RX_GRID_FIELDS.items() if key in rx_cfg}
        if "cabin_dims_m" in cfg:
            layout_kwargs["cabin_dims_m"] = _json_get(cfg, "", "cabin_dims_m", 3)
        with _located("rx_grid"):
            layout = CabinLayout(**layout_kwargs)

        blockers = []
        for i, entry in enumerate(_json_get(cfg, "", "blockers", list, [])):
            where = f"blockers[{i}]"
            entry = _coerce(entry, _BLOCKER_KEYS, where)
            corners = _json_get(entry, where, "min_m", 3), _json_get(entry, where, "max_m", 3)
            mat, label = material(entry, where, "material", NYLON), _json_get(entry, where, "label", str, "Seat")
            with _located(where):
                blockers.append(Blocker(*corners, mat, label))

        walls = _json_get(cfg, "", "walls", _WALL_KEYS, {})
        default_wall = material(walls, "walls", "all", PEC_METAL)
        scene = _layout_scene(
            layout,
            tx_m=_json_get(cfg, "", "tx_m", 3, None),
            name=_json_get(cfg, "", "name", str, "custom"),
            wall_materials={f: material(walls, "walls", f, default_wall) for f in FACES},
            blockers=tuple(blockers),
            max_reflections=_json_get(cfg, "", "max_reflections", int, 3),
        )
        return scene, _budget_from_json(cfg, "")
