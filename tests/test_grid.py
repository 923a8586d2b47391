"""Tests for grid construction, interpolation, and field serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfmpbe.errors import ConfigError, DomainError, FormatError
from gfmpbe.grid import (
    Field,
    Grid,
    build_grid,
    read_field_binary,
    trilinear,
    trilinear_stencil,
    write_field_binary,
    write_field_csv,
)
from gfmpbe.molecule import Atom, AtomSet


def _single_atom(center=(0.0, 0.0, 0.0), radius=2.0):
    return AtomSet([Atom(center, 1.0, radius)])


class TestBuildGrid:
    def test_padding_rule(self):
        # R=2 sphere at origin, probe 1.4: pad floor(2.8)=2 -> box [-4,4].
        g = build_grid(_single_atom(), h=0.5)
        assert g.origin == pytest.approx((-4.0, -4.0, -4.0))
        assert g.shape == (17, 17, 17)
        assert g.upper == pytest.approx((4.0, 4.0, 4.0))

    def test_snap_widens_symmetrically(self):
        # Extent 8 is not a multiple of h=0.3: 27 cells cover 8.1.
        g = build_grid(_single_atom(), h=0.3)
        assert g.shape == (28, 28, 28)
        lo, hi = g.origin[0], g.upper[0]
        assert hi - lo == pytest.approx(8.1, abs=1e-12)
        assert lo == pytest.approx(-4.05, abs=1e-12)
        assert hi == pytest.approx(4.05, abs=1e-12)

    def test_explicit_box(self):
        g = build_grid(_single_atom(), h=0.25, box=(-8, -8, -8, 8, 8, 8))
        assert g.shape == (65, 65, 65)
        assert g.origin == (-8.0, -8.0, -8.0)

    def test_box_must_be_h_multiple(self):
        with pytest.raises(ConfigError, match="multiples"):
            build_grid(_single_atom(), h=0.3, box=(-8, -8, -8, 8, 8, 8))

    def test_asymmetric_solute(self):
        atoms = AtomSet(
            [Atom((0.0, 0.0, 0.0), 1.0, 1.0), Atom((3.0, 0.0, 0.0), -1.0, 1.5)]
        )
        g = build_grid(atoms, h=0.5, probe_radius=1.4)
        assert g.origin[0] == pytest.approx(-3.0)
        assert g.upper[0] == pytest.approx(6.5)
        assert g.origin[1] == pytest.approx(-3.5)

    def test_min_node_floor(self):
        g = build_grid(_single_atom(radius=0.5), h=50.0, probe_radius=0.0)
        assert all(n >= 4 for n in g.shape)

    def test_bad_spacing(self):
        with pytest.raises(ConfigError):
            build_grid(_single_atom(), h=-1.0)

    @pytest.mark.parametrize("origin", [(math.nan, 0.0, 0.0), (0.0, 0.0, -math.inf)])
    def test_nonfinite_origin_rejected(self, origin):
        with pytest.raises(ConfigError, match=r"grid origin must be finite, got \("):
            Grid(origin, 0.5, (4, 4, 4))

    @pytest.mark.parametrize("corner", [0, 4])
    def test_nan_box_corner_rejected(self, corner):
        box = [-8.0, -8.0, -8.0, 8.0, 8.0, 8.0]
        box[corner] = math.nan
        with pytest.raises(ConfigError, match="upper corner must exceed lower"):
            build_grid(_single_atom(), h=0.5, box=tuple(box))

    def test_nodes_at_matches_every_node_masked(self):
        grid = Grid((-1.0, 0.5, 2.0), 0.3, (5, 6, 4))
        mask = np.random.default_rng(3).random(grid.shape) < 0.3
        np.testing.assert_array_equal(grid.nodes_at(mask), grid.nodes()[mask])
        assert grid.nodes_at(np.zeros(grid.shape, dtype=bool)).shape == (0, 3)

    @given(
        cx=st.floats(-3, 3),
        r=st.floats(0.5, 3.0),
        h=st.sampled_from([0.2, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_spheres_always_contained(self, cx, r, h):
        atoms = AtomSet([Atom((cx, 0.0, 0.0), 1.0, r)])
        g = build_grid(atoms, h=h, probe_radius=1.4)
        assert g.origin[0] <= cx - r
        assert g.upper[0] >= cx + r
        # Node count consistent with an exact cell multiple.
        for a in range(3):
            extent = g.upper[a] - g.origin[a]
            assert extent / h == pytest.approx(g.shape[a] - 1, abs=1e-9)


class TestTrilinear:
    def setup_method(self):
        self.grid = Grid((-1.0, -1.0, -1.0), 0.5, (5, 5, 5))

    def test_exact_on_nodes(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(5, 5, 5))
        f = Field(self.grid, vals)
        assert trilinear(f, (-1.0, -1.0, -1.0)) == pytest.approx(
            vals[0, 0, 0], rel=1e-14
        )
        assert trilinear(f, (0.5, 0.0, -0.5)) == pytest.approx(
            vals[3, 2, 1], rel=1e-14
        )

    def test_exact_for_trilinear_functions(self):
        nodes = self.grid.nodes()
        x, y, z = nodes[..., 0], nodes[..., 1], nodes[..., 2]
        vals = 2.0 + x - 3.0 * y + 0.5 * z + x * y - y * z + 0.25 * x * y * z
        f = Field(self.grid, vals)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.0, 1.0, size=(50, 3))
        got = trilinear(f, pts)
        want = (
            2.0
            + pts[:, 0]
            - 3.0 * pts[:, 1]
            + 0.5 * pts[:, 2]
            + pts[:, 0] * pts[:, 1]
            - pts[:, 1] * pts[:, 2]
            + 0.25 * pts[:, 0] * pts[:, 1] * pts[:, 2]
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_outside_raises(self):
        f = Field(self.grid, np.zeros((5, 5, 5)))
        with pytest.raises(DomainError):
            trilinear(f, (1.5, 0.0, 0.0))

    def test_boundary_overhang_forgiven(self):
        f = Field(self.grid, np.ones((5, 5, 5)))
        assert trilinear(f, (1.0 + 1e-13, 0.0, 0.0)) == pytest.approx(1.0)


def _trilinear_ref(field, p):
    """Trilinear interpolation as eight gathers, x then y then z: the
    arithmetic the stencil must reproduce."""
    g = field.grid
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    rel = (pts - np.asarray(g.origin)) / g.h
    n = np.array(g.shape)
    cell = np.clip(np.floor(rel).astype(int), 0, n - 2)
    frac = np.clip(rel - cell, 0.0, 1.0)
    i, j, k = cell[:, 0], cell[:, 1], cell[:, 2]
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    v = field.values
    c00 = v[i, j, k] * (1 - fx) + v[i + 1, j, k] * fx
    c10 = v[i, j + 1, k] * (1 - fx) + v[i + 1, j + 1, k] * fx
    c01 = v[i, j, k + 1] * (1 - fx) + v[i + 1, j, k + 1] * fx
    c11 = v[i, j + 1, k + 1] * (1 - fx) + v[i + 1, j + 1, k + 1] * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out = c0 * (1 - fz) + c1 * fz
    return float(out[0]) if single else out


class TestTrilinearStencil:
    """The stencil reproduces the eight-gather interpolation bit for bit."""

    def setup_method(self):
        self.grid = Grid((-1.0, -0.5, 0.25), 0.25, (6, 9, 7))
        rng = np.random.default_rng(11)
        self.field = Field(self.grid, rng.normal(scale=50.0, size=self.grid.shape))

    def _points(self, m):
        rng = np.random.default_rng(12)
        return np.asarray(self.grid.origin) + rng.uniform(
            0.0, 1.0, (m, 3)
        ) * (np.array(self.grid.shape) - 1) * self.grid.h

    def test_batch(self):
        pts = self._points(200)
        got = trilinear(self.field, pts)
        want = _trilinear_ref(self.field, pts)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        stencil = trilinear_stencil(self.grid, pts)
        np.testing.assert_array_equal(stencil(self.field.values), got)

    def test_single_points_and_nodes(self):
        nodes = self.grid.nodes().reshape(-1, 3)[::7]
        for p in list(self._points(20)) + list(nodes):
            got = trilinear(self.field, p)
            assert isinstance(got, float)
            assert got == _trilinear_ref(self.field, p)

    def test_overhang_is_clamped(self):
        lo, hi = np.asarray(self.grid.origin), np.asarray(self.grid.upper)
        eps = 1e-9 * self.grid.h * 0.5
        pts = np.array([lo - eps, hi + eps, [lo[0] - eps, 0.3, hi[2] + eps], hi, lo])
        got = trilinear(self.field, pts)
        np.testing.assert_array_equal(got, _trilinear_ref(self.field, pts))
        np.testing.assert_allclose(
            got[:2], [self.field.values[0, 0, 0], self.field.values[-1, -1, -1]],
            rtol=1e-12,
        )

    def test_outside_names_the_point_in_plain_floats(self):
        pts = self._points(3)
        pts[1] = (5.2, 0.0, 0.5)
        with pytest.raises(DomainError, match=r"point \(5\.2, 0\.0, 0\.5\)") as exc:
            trilinear_stencil(self.grid, pts)
        assert "np.float64" not in str(exc.value)


class TestFieldIO:
    def _field(self):
        grid = Grid((-1.0, 0.5, 2.0), 0.25, (4, 5, 6))
        rng = np.random.default_rng(11)
        return Field(grid, rng.normal(size=(4, 5, 6)))

    def test_binary_round_trip(self, tmp_path):
        f = self._field()
        path = tmp_path / "field.bin"
        write_field_binary(f, path)
        back = read_field_binary(path)
        assert back.grid == f.grid
        np.testing.assert_array_equal(back.values, f.values)

    def test_csv_layout(self, tmp_path):
        f = self._field()
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,k,value"
        assert len(lines) == 1 + 4 * 5 * 6
        i, j, k, v = lines[1].split(",")
        assert (i, j, k) == ("0", "0", "0")
        assert float(v) == f.values[0, 0, 0]
        # C order: second row advances k.
        assert lines[2].split(",")[:3] == ["0", "0", "1"]

    def test_csv_bytes_match_per_node_writer(self, tmp_path):
        # The per-node loop the writer used to run, as the byte reference.
        def per_node(field, path):
            nx, ny, nz = field.grid.shape
            idx = np.indices((nx, ny, nz)).reshape(3, -1).T
            with open(path, "w") as f:
                f.write("i,j,k,value\n")
                for (i, j, k), val in zip(idx, field.values.reshape(-1)):
                    f.write(f"{i},{j},{k},{float(val)!r}\n")

        grid = Grid((-1.0, 0.5, 2.0), 0.25, (11, 4, 12))
        values = np.random.default_rng(12).normal(size=grid.shape) * 1e3
        special = [-0.0, 5e-324, 1.0 / 3.0, 1e300, -1e300, np.nan, np.inf, 1e-5, 1e16]
        values.flat[: len(special)] = special
        values[-1, -1, -len(special):] = special
        f = Field(grid, values)
        write_field_csv(f, tmp_path / "new.csv")
        per_node(f, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize(
        "size, needs",
        [(20, 56), (56 + 8 * 119, 1016), (1016 + 7, 1016)],
        ids=["header", "values", "trailing"],
    )
    def test_bad_length_is_format_error(self, tmp_path, size, needs):
        """A (4, 5, 6) field takes a 56-byte header and 960 bytes of values."""
        path = tmp_path / "field.bin"
        write_field_binary(self._field(), path)
        path.write_bytes((path.read_bytes() + bytes(8))[:size])
        with pytest.raises(FormatError, match=f"needs {needs} bytes, found {size}$"):
            read_field_binary(path)

    def test_nan_origin_in_the_header_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        write_field_binary(self._field(), path)
        raw = bytearray(path.read_bytes())
        raw[32:40] = np.array([math.nan], dtype="<f8").tobytes()  # origin x
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match=r"grid origin must be finite, got \(nan"):
            read_field_binary(path)

    def test_shape_mismatch_rejected(self):
        grid = Grid((0.0, 0.0, 0.0), 1.0, (4, 4, 4))
        with pytest.raises(ConfigError):
            Field(grid, np.zeros((4, 4, 5)))
