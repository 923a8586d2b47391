"""Tests for interface classification and the interchange format."""

import importlib.util
import math
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from gfmpbe.errors import AssemblyError, ConfigError, FormatError
from gfmpbe.grid import Grid, build_grid
from gfmpbe.molecule import Atom, AtomSet
from gfmpbe.surface import (
    _T_TOL,
    AXIS_NAMES,
    THETA_MIN,
    InterfaceData,
    _cover,
    _stable_roots,
    classify_sphere,
    classify_ses_grid,
    classify_union,
    export_interface,
    import_interface,
)

GRID17 = Grid((-4.0, -4.0, -4.0), 0.5, (17, 17, 17))

Cut = namedtuple("Cut", "axis index theta location")
"""One crossing as the tests write it down; _interface takes a list of them."""


def _key(c: Cut) -> tuple:
    return (c.axis, *c.index)


def _interface(grid: Grid, inside, cuts) -> InterfaceData:
    """InterfaceData on the four arrays of a list of Cut records."""
    return InterfaceData(grid, inside, *zip(*cuts))


def _assert_consistent(data: InterfaceData):
    """Every mixed edge has one crossing, no crossing on uniform edges."""
    data.validate()


class TestSphere:
    def test_inside_flags(self):
        data = classify_sphere(GRID17, (0.0, 0.0, 0.0), 2.0)
        nodes = GRID17.nodes()
        dist = np.sqrt((nodes**2).sum(axis=-1))
        np.testing.assert_array_equal(data.inside, dist - 2.0 < 1e-12)

    def test_consistency(self):
        data = classify_sphere(GRID17, (0.3, -0.2, 0.1), 1.7)
        _assert_consistent(data)

    def test_crossing_locations_on_sphere(self):
        center = np.array([0.3, -0.2, 0.1])
        data = classify_sphere(GRID17, center, 1.7)
        assert len(data.theta) > 0
        r = np.linalg.norm(data.location - center, axis=1)
        np.testing.assert_allclose(r, 1.7, rtol=0.0, atol=1e-12)

    def test_crossing_between_endpoints(self):
        data = classify_sphere(GRID17, (0.0, 0.0, 0.0), 2.0)
        rows = np.arange(len(data.theta))
        lo = np.asarray(GRID17.origin) + GRID17.h * data.index
        t = (data.location - lo)[rows, data.axis] / GRID17.h
        assert np.all((t >= -1e-9) & (t <= 1.0 + 1e-9))
        assert np.all((data.theta >= 1e-6) & (data.theta <= 1.0 - 1e-6))

    def test_node_on_surface_counts_inside(self):
        # R=2 with h=0.5 puts nodes exactly on the surface along the axes.
        data = classify_sphere(GRID17, (0.0, 0.0, 0.0), 2.0)
        assert data.inside[12, 8, 8]  # x = 2.0 exactly
        assert not data.inside[13, 8, 8]

    def test_mirror_symmetry(self):
        data = classify_sphere(GRID17, (0.0, 0.0, 0.0), 1.8)
        np.testing.assert_array_equal(data.inside, data.inside[::-1, :, :])
        np.testing.assert_array_equal(data.inside, data.inside[:, ::-1, :])

    @pytest.mark.parametrize("radius", [0.0, -1.5])
    def test_nonpositive_radius_rejected(self, radius):
        message = f"sphere radius must be positive, got {radius}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            classify_sphere(GRID17, (0.0, 0.0, 0.0), radius)


class TestUnion:
    def _atoms(self):
        return AtomSet(
            [
                Atom((0.0, 0.0, 0.0), 1.0, 2.0),
                Atom((1.8, 0.0, 0.0), -0.5, 1.5),
                Atom((0.0, 1.5, 0.5), 0.3, 1.2),
            ]
        )

    def test_single_atom_equals_sphere(self):
        one = AtomSet([Atom((0.2, -0.1, 0.3), 1.0, 1.9)])
        a = classify_union(GRID17, one)
        b = classify_sphere(GRID17, (0.2, -0.1, 0.3), 1.9)
        assert a == b

    def test_consistency(self):
        data = classify_union(GRID17, self._atoms())
        _assert_consistent(data)

    def test_crossings_on_union_boundary(self):
        atoms = self._atoms()
        data = classify_union(GRID17, atoms)
        assert len(data.theta) > 0
        offsets = data.location[:, None, :] - atoms.centers
        signed = (np.linalg.norm(offsets, axis=2) - atoms.radii).min(axis=1)
        np.testing.assert_allclose(signed, 0.0, rtol=0.0, atol=1e-10)

    def test_inside_is_union_of_balls(self):
        atoms = self._atoms()
        data = classify_union(GRID17, atoms)
        nodes = GRID17.nodes()
        expect = np.zeros(GRID17.shape, dtype=bool)
        for ctr, r in zip(atoms.centers, atoms.radii):
            d = np.sqrt(((nodes - ctr) ** 2).sum(axis=-1))
            expect |= d - r < 1e-12
        np.testing.assert_array_equal(data.inside, expect)


class TestSesGrid:
    def _atoms(self):
        return AtomSet(
            [
                Atom((0.0, 0.0, 0.0), 1.0, 2.0),
                Atom((2.8, 0.0, 0.0), -0.7, 1.7),
            ]
        )

    def test_zero_probe_delegates_to_union(self):
        atoms = self._atoms()
        a = classify_ses_grid(GRID17, atoms, probe_radius=0.0)
        b = classify_union(GRID17, atoms)
        assert a == b

    def test_consistency(self):
        data = classify_ses_grid(GRID17, self._atoms(), probe_radius=1.4)
        _assert_consistent(data)

    def test_single_atom_mask_equals_sphere(self):
        one = AtomSet([Atom((0.1, 0.2, -0.3), 1.0, 1.8)])
        ses = classify_ses_grid(GRID17, one, probe_radius=1.4)
        sph = classify_sphere(GRID17, (0.1, 0.2, -0.3), 1.8)
        np.testing.assert_array_equal(ses.inside, sph.inside)
        assert np.array_equal(ses.crossings, sph.crossings)

    def test_single_atom_thetas_interpolate_node_levels(self):
        # One atom: the level is psi = r - |x - c| at every node, and each
        # cut is the linear interpolation of psi between the edge's nodes.
        center, r = np.array([0.1, 0.2, -0.3]), 1.8
        one = AtomSet([Atom(tuple(center), 1.0, r)])
        data = classify_ses_grid(GRID17, one, probe_radius=1.4)
        origin = np.asarray(GRID17.origin)
        lo = origin + GRID17.h * data.index
        hi = lo.copy()
        hi[np.arange(len(hi)), data.axis] += GRID17.h
        psi_lo = r - np.linalg.norm(lo - center, axis=1)
        psi_hi = r - np.linalg.norm(hi - center, axis=1)
        expect = np.clip(psi_lo / (psi_lo - psi_hi), THETA_MIN, 1.0 - THETA_MIN)
        assert len(data.theta) > 200
        np.testing.assert_allclose(data.theta, expect, rtol=0.0, atol=1e-12)

    def test_ses_fills_neck_between_close_spheres(self):
        # Two spheres 0.5 apart: the probe cannot reach their midpoint, so
        # the rolled surface keeps it inside even though the union does not.
        atoms = AtomSet(
            [Atom((-1.75, 0.0, 0.0), 1.0, 1.5), Atom((1.75, 0.0, 0.0), -1.0, 1.5)]
        )
        data = classify_ses_grid(GRID17, atoms, probe_radius=1.4)
        iidx = (8, 8, 8)  # the origin
        vdw = classify_union(GRID17, atoms)
        assert not vdw.inside[iidx]
        assert data.inside[iidx]

    def test_ses_contains_vdw(self):
        atoms = self._atoms()
        ses = classify_ses_grid(GRID17, atoms, probe_radius=1.4)
        vdw = classify_union(GRID17, atoms)
        assert np.all(ses.inside | ~vdw.inside)

    def test_inside_subset_of_lattice_probe_oracle(self):
        # A node is oracle-inside if vdW-inside or no exterior lattice node
        # within probe reach of every covering inflated sphere... simplest
        # correct form: depth to the SAS complement (lattice EDT) >= probe.
        from scipy.ndimage import distance_transform_edt

        atoms = self._atoms()
        rp = 1.4
        data = classify_ses_grid(GRID17, atoms, probe_radius=rp)
        nodes = GRID17.nodes()
        sas = np.zeros(GRID17.shape, dtype=bool)
        vdw = np.zeros(GRID17.shape, dtype=bool)
        for ctr, r in zip(atoms.centers, atoms.radii):
            d = np.sqrt(((nodes - ctr) ** 2).sum(axis=-1))
            sas |= d - (r + rp) < 1e-12
            vdw |= d - r < 1e-12
        edt = distance_transform_edt(sas, sampling=(0.5, 0.5, 0.5))
        oracle = vdw | (sas & (edt >= rp - 1e-12))
        assert np.all(oracle | ~data.inside)


def _workloads():
    """bench/workloads.py, for its seeded desk poses and branched chains."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestSesContainsUnion:
    """classify_ses_grid's inside mask reads the level psi alone, which holds
    only because every node inside an atom sphere has psi >= 0: each node
    that classify_union puts inside is inside the SES mask too."""

    @staticmethod
    def _check(atoms, h, probe):
        grid = build_grid(atoms, h=h, probe_radius=probe)
        vdw = classify_union(grid, atoms).inside
        ses = classify_ses_grid(grid, atoms, probe_radius=probe).inside
        assert vdw.any() and np.all(ses | ~vdw)

    @pytest.mark.parametrize("h", [0.5, 0.25])
    def test_desk_poses(self, h):
        rng = np.random.default_rng(int(4 * h))
        for atoms in _workloads().solute_poses(1, 8, h):
            self._check(atoms, h, float(rng.uniform(0.3, 3.0)))

    @pytest.mark.parametrize("n_atoms", [10, 12, 40])
    def test_branched_chains(self, n_atoms):
        atoms = _workloads().branched_chain(7, n_atoms)
        for probe in (0.3, 1.4, 3.0):
            self._check(atoms, 0.5, probe)


def test_import_leaves_scipy_spatial_and_sparse_unloaded():
    # A fresh interpreter: importing the package must not pull in either.
    code = (
        "import sys, gfmpbe; "
        "print(sorted({'scipy.spatial', 'scipy.sparse'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


class TestExhaustive17:
    """Classification/crossing consistency across generators on 17^3 grids."""

    def test_all_generators_consistent(self):
        atoms = AtomSet(
            [
                Atom((0.0, 0.0, 0.0), 1.0, 2.0),
                Atom((2.8, 0.0, 0.0), -0.7, 1.7),
                Atom((0.0, 2.9, 0.4), 0.5, 1.8),
                Atom((-2.7, 0.3, -0.6), -0.8, 1.6),
            ]
        )
        grid = build_grid(atoms, h=0.5, probe_radius=1.4)
        for data in (
            classify_sphere(grid, (0.1, -0.2, 0.0), 2.3),
            classify_union(grid, atoms),
            classify_ses_grid(grid, atoms, probe_radius=1.4),
        ):
            _assert_consistent(data)
            # Exhaustive edge sweep: crossing exactly where flags change.
            inside = data.inside
            keys = set(map(tuple, data.crossings.tolist()))
            for axis in range(3):
                nx, ny, nz = grid.shape
                for i in range(nx - (axis == 0)):
                    for j in range(ny - (axis == 1)):
                        for k in range(nz - (axis == 2)):
                            hi = [i, j, k]
                            hi[axis] += 1
                            if hi[axis] >= grid.shape[axis]:
                                continue
                            mixed = inside[i, j, k] != inside[tuple(hi)]
                            has = (axis, i, j, k) in keys
                            assert mixed == has


class TestInterchange:
    def _data(self):
        atoms = AtomSet(
            [Atom((0.0, 0.0, 0.0), 1.0, 2.0), Atom((1.9, 0.3, 0.0), -0.5, 1.4)]
        )
        return classify_union(GRID17, atoms)

    def test_round_trip_identity(self, tmp_path):
        data = self._data()
        path = tmp_path / "iface.txt"
        export_interface(data, path)
        back = import_interface(path)
        assert back == data

    def test_header_contents(self, tmp_path):
        data = self._data()
        path = tmp_path / "iface.txt"
        export_interface(data, path)
        text = path.read_text()
        assert "box -4.0 -4.0 -4.0 4.0 4.0 4.0" in text
        assert "n 17 17 17" in text
        assert "h 0.5" in text
        assert "convention native" in text

    def test_rows_cover_nx(self, tmp_path):
        data = self._data()
        path = tmp_path / "iface.txt"
        export_interface(data, path)
        for line in path.read_text().splitlines():
            if line.startswith("row"):
                runs = line.split()[3:]
                total = sum(int(r.split("*")[0]) for r in runs)
                assert total == 17

    def test_eses_convention_negates(self, tmp_path):
        data = self._data()
        native = tmp_path / "native.txt"
        export_interface(data, native)
        text = native.read_text().replace("convention native", "convention eses")
        flipped = []
        for line in text.splitlines():
            if line.startswith("row"):
                head, j, k, *runs = line.split()
                runs = [
                    f"{r.split('*')[0]}*{-int(r.split('*')[1])}" for r in runs
                ]
                flipped.append(" ".join([head, j, k] + runs))
            else:
                flipped.append(line)
        eses = tmp_path / "eses.txt"
        eses.write_text("\n".join(flipped) + "\n")
        assert import_interface(eses) == data

    def test_missing_location_computed(self, tmp_path):
        grid = Grid((0.0, 0.0, 0.0), 1.0, (4, 4, 4))
        inside = np.zeros((4, 4, 4), dtype=bool)
        inside[0, :, :] = True
        crossings = [
            Cut(0, (0, j, k), 0.25, (0.25, float(j), float(k)))
            for j in range(4)
            for k in range(4)
        ]
        data = _interface(grid, inside, crossings)
        path = tmp_path / "iface.txt"
        export_interface(data, path)
        # Strip the locations from every cross line.
        lines = []
        for line in path.read_text().splitlines():
            if line.startswith("cross"):
                lines.append(" ".join(line.split()[:6]))
            else:
                lines.append(line)
        path.write_text("\n".join(lines) + "\n")
        back = import_interface(path)
        assert np.array_equal(back.crossings, data.crossings)
        assert np.array_equal(back.location, data.location)

    def test_format_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("box 0 0 0 3 3 3\nn 4 4 4\nh 1.0\nbogus directive\n")
        with pytest.raises(FormatError, match="line 4"):
            import_interface(path)

    def test_row_length_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("box 0 0 0 3 3 3\nn 4 4 4\nh 1.0\nrow 0 0 3*-1\n")
        with pytest.raises(FormatError, match="covers 3"):
            import_interface(path)

    def test_h_box_consistency_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("box 0 0 0 3 3 3\nn 4 4 4\nh 0.9\n")
        with pytest.raises(FormatError, match="inconsistent"):
            import_interface(path)

    def test_crossing_on_uniform_edge_rejected(self, tmp_path):
        data = self._data()
        path = tmp_path / "iface.txt"
        export_interface(data, path)
        text = path.read_text() + "cross x 1 1 1 0.5\n"
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(FormatError, match="uniform"):
            import_interface(bad)

    @pytest.mark.parametrize("theta", ["1e-09", "0.9999999999"])
    def test_theta_outside_clamp_range_rejected(self, tmp_path, theta):
        path = tmp_path / "iface.txt"
        export_interface(self._data(), path)
        lines = path.read_text().splitlines()
        row = next(n for n, line in enumerate(lines) if line.startswith("cross"))
        parts = lines[row].split()
        parts[5] = theta
        lines[row] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        key = (AXIS_NAMES.index(parts[1]), *(int(v) for v in parts[2:5]))
        message = (
            f"theta {theta} outside clamp range [{THETA_MIN}, {1.0 - THETA_MIN}]"
            f" on edge {key}"
        )
        with pytest.raises(FormatError, match=re.escape(message)):
            import_interface(path)

    def test_missing_crossing_rejected(self, tmp_path):
        data = self._data()
        path = tmp_path / "iface.txt"
        export_interface(data, path)
        lines = path.read_text().splitlines()
        dropped = [ln for ln in lines if not ln.startswith("cross")]
        dropped.append(next(ln for ln in lines if ln.startswith("cross")))
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(dropped) + "\n")
        with pytest.raises(FormatError, match="without crossing"):
            import_interface(bad)


# A valid document: the x = 0 plane of a 4^3 grid inside.  Lines 1-4 are the
# header, 5-20 the rows and 21-36 the crossings, (0, 0, 0) first.
_DOC = (
    ["box 0 0 0 3 3 3", "n 4 4 4", "h 1.0", "convention native"]
    + [f"row {j} {k} 1*-1 3*1" for k in range(4) for j in range(4)]
    + [f"cross x 0 {j} {k} 0.25" for k in range(4) for j in range(4)]
)


def _write_doc(path, edits: dict) -> None:
    """_DOC with line n (1-based) replaced by edits[n], appended past the end;
    an empty string leaves a blank line, so the numbers stay."""
    lines = list(_DOC)
    for n, text in sorted(edits.items()):
        if n > len(lines):
            lines.append(text)
        else:
            lines[n - 1] = text
    path.write_text("\n".join(lines) + "\n")


class TestImportRejections:
    """One malformed document per rejection branch of import_interface."""

    def test_base_document_and_reserved_normal(self, tmp_path):
        path = tmp_path / "iface.txt"
        _write_doc(path, {})
        base = import_interface(path)
        assert base.inside[0].all() and not base.inside[1:].any()
        assert len(base.theta) == 16
        # the 11-field form's normal is read and ignored
        _write_doc(path, {21: "cross x 0 0 0 0.25 0.25 0 0 1 0 0"})
        assert import_interface(path) == base

    @pytest.mark.parametrize(
        "edits, message, line",
        [
            ({1: "box 0 0 0 3 3"}, "box expects 6 numbers, got 5", 1),
            ({1: "box 0 0 0 3 3 x"}, "malformed number in box", 1),
            ({2: "n 4 4"}, "n expects 3 integers, got 2", 2),
            ({2: "n 4 4 4.0"}, "malformed integer in n", 2),
            ({2: "n 4 1 4"}, "node counts must be at least 4, got (4, 1, 4)", 2),
            ({3: "h 1.0 1.0"}, "h expects 1 numbers, got 2", 3),
            ({3: "h one"}, "malformed number in h", 3),
            ({3: "h -1"}, "h must be positive, got -1.0", 3),
            ({4: "convention eses native"}, "convention must be `native` or `eses`", 4),
            ({2: "row 0 0 1*-1 3*1"}, "row before n directive", 2),
            ({5: "row 0 0"}, "row expects j k and at least one run", 5),
            ({5: "row 0 k 1*-1 3*1"}, "malformed row indices", 5),
            ({5: "row 0 4 1*-1 3*1"}, "row indices (0, 4) out of range", 5),
            ({6: "row 0 0 1*-1 3*1"}, "duplicate row (0, 0)", 6),
            ({5: "row 0 0 1*-1 3"}, "malformed run '3'", 5),
            ({5: "row 0 0 1*-1 3*0"}, "run must be count*(-1|1), got '3*0'", 5),
            ({5: "row 0 0 0*-1 4*1"}, "run must be count*(-1|1), got '0*-1'", 5),
            ({5: "row 0 0 1*-1 2*1"}, "row covers 3 nodes, expected 4", 5),
            (
                {21: "cross x 0 0 0 0.25 0.25"},
                "cross expects axis, i j k, theta, then optional location and normal",
                21,
            ),
            ({21: "cross w 0 0 0 0.25"}, "unknown axis 'w'", 21),
            ({21: "cross x 0 0 z 0.25"}, "malformed crossing indices", 21),
            ({21: "cross x 0 0 0 quarter"}, "malformed number in theta", 21),
            ({21: "cross x 0 0 0 1.0"}, "theta must be in (0, 1), got 1.0", 21),
            ({21: "cross x 0 0 0 0.25 0.25 0 o"}, "malformed number in location", 21),
            (
                {21: "cross x 0 0 0 0.25 0.25 0 0 1 0 o"},
                "malformed number in normal",
                21,
            ),
            ({37: "bogus 1"}, "unknown directive 'bogus'", 37),
            ({3: ""}, "missing required directive (box, n, or h)", None),
            (
                {1: "box 0 0 0 3 3 4"},
                "box extent on axis z inconsistent with n and h",
                None,
            ),
            ({20: ""}, "expected 16 rows, got 15", None),
            ({21: "cross x 3 0 0 0.25"}, "crossing edge (3, 0, 0) out of range", 21),
            ({21: "cross x -1 0 0 0.25"}, "crossing edge (-1, 0, 0) out of range", 21),
            (
                {21: "cross y 0 0 0 0.25"},
                "crossing on a uniform edge at (0, 0, 0) along y",
                21,
            ),
            ({22: "cross x 0 0 0 0.25"}, "duplicate crossing on edge (0, 0, 0)", 22),
            ({36: ""}, "mixed edge without crossing record: (0, 0, 3, 3)", None),
            ({2: "n 3 3 3"}, "node counts must be at least 4, got (3, 3, 3)", 2),
            ({3: "h nan"}, "h must be finite, got nan", 3),
            ({3: "h inf"}, "h must be finite, got inf", 3),
            (
                {1: "box nan 0 0 3 3 3"},
                "box corners must be finite, got [nan, 0.0, 0.0, 3.0, 3.0, 3.0]",
                1,
            ),
            (
                {1: "box 0 0 0 inf 3 3"},
                "box corners must be finite, got [0.0, 0.0, 0.0, inf, 3.0, 3.0]",
                1,
            ),
        ],
    )
    def test_rejection_names_cause_and_line(self, tmp_path, edits, message, line):
        path = tmp_path / "bad.txt"
        _write_doc(path, edits)
        with pytest.raises(FormatError) as exc_info:
            import_interface(path)
        assert exc_info.value.line == line
        where = "" if line is None else f"line {line}: "
        assert str(exc_info.value) == where + message

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"box 0 0 0 3 3 3\n\xff\xfe\x00bad\n")
        with pytest.raises(FormatError) as exc_info:
            import_interface(path)
        assert exc_info.value.line is None
        message = f"interface file {path} is not UTF-8 text: "
        assert str(exc_info.value).startswith(message)


class TestValidation:
    @pytest.mark.parametrize("arrays", [False, True])
    def test_inside_is_a_read_only_copy(self, arrays):
        # The crossing fields as Python sequences or as numpy arrays.
        grid, inside, crossings = _single_node()
        before = inside.copy()
        fields = [list(f) for f in zip(*crossings)]
        if arrays:
            fields = [np.array(f) for f in fields]
        data = InterfaceData(grid, inside, *fields)
        assert inside.flags.writeable and np.array_equal(inside, before)
        assert not data.inside.flags.writeable
        inside[2, 2, 2] = True  # a later edit of the caller's mask
        assert np.array_equal(data.inside, before)
        # A read-only view is copied; a read-only mask owning its memory,
        # as the classifiers hand over, is kept.
        view = before.view()
        view.flags.writeable = False
        assert _interface(grid, view, crossings).inside is not view
        before.flags.writeable = False
        assert _interface(grid, before, crossings).inside is before

    def test_duplicate_crossing_rejected(self):
        grid = Grid((0.0, 0.0, 0.0), 1.0, (4, 4, 4))
        inside = np.zeros((4, 4, 4), dtype=bool)
        c = Cut(0, (1, 1, 1), 0.5, (1.5, 1.0, 1.0))
        with pytest.raises(ConfigError, match="duplicate"):
            _interface(grid, inside, [c, c])

    def test_theta_bounds_validated(self):
        grid = Grid((0.0, 0.0, 0.0), 1.0, (4, 4, 4))
        inside = np.zeros((4, 4, 4), dtype=bool)
        inside[:2, 1, 1] = True
        # One mixed edge at (1,1,1) along x plus uniform neighbors around it:
        # patch the other flags so only controlled mixed edges exist.
        inside[:, :, :] = False
        inside[1, 1, 1] = True
        crossings = []
        for axis in range(3):
            for delta in (0, 1):
                idx = [1, 1, 1]
                idx[axis] -= delta
                loc = [1.0, 1.0, 1.0]
                loc[axis] += (0.5 - delta)
                crossings.append(Cut(axis, tuple(idx), 0.5, tuple(loc)))
        _interface(grid, inside, crossings).validate()
        bad = [crossings[0]._replace(theta=1.5), *crossings[1:]]
        with pytest.raises(AssemblyError, match="theta"):
            _interface(grid, inside, bad)


def _generators():
    atoms = AtomSet(
        [
            Atom((0.0, 0.0, 0.0), 1.0, 2.0),
            Atom((2.8, 0.0, 0.0), -0.7, 1.7),
            Atom((0.0, 2.9, 0.4), 0.5, 1.8),
        ]
    )
    grid = build_grid(atoms, h=0.5, probe_radius=1.4)
    return {
        "sphere": classify_sphere(grid, (0.1, -0.2, 0.0), 2.3),
        "union": classify_union(grid, atoms),
        "ses": classify_ses_grid(grid, atoms, probe_radius=1.4),
    }


class TestArrayLayout:
    """The crossing arrays, their key array and the interchange."""

    @pytest.mark.parametrize("kind", ["sphere", "union", "ses"])
    def test_shuffled_crossing_list_equals_classifier(self, kind):
        data = _generators()[kind]
        perm = np.random.default_rng(4).permutation(len(data.theta))
        rows = [a[perm] for a in (data.axis, data.index, data.theta, data.location)]
        rebuilt = InterfaceData(data.grid, data.inside, *rows)
        assert rebuilt == data
        keys = rebuilt.crossings.tolist()
        assert keys == sorted(np.column_stack(rows[:2]).tolist())
        again = [np.concatenate([a, a[5:6]]) for a in rows]
        with pytest.raises(ConfigError, match="duplicate"):
            InterfaceData(data.grid, data.inside, *again)

    @pytest.mark.parametrize("kind", ["sphere", "union", "ses"])
    def test_export_import_round_trip(self, kind, tmp_path):
        data = _generators()[kind]
        path = tmp_path / f"{kind}.txt"
        export_interface(data, path)
        assert import_interface(path) == data

    def test_key_array_and_row_lookup(self):
        data = _generators()["union"]
        keys = data.crossings
        assert keys.shape == (len(data.theta), 4) and len(data.theta) > 0
        row = len(data.theta) // 3
        key = data.key(row)
        assert key == tuple(keys[row].tolist()) and data.row(key) == row
        for bad in ((3, 0, 0, 0), (0, 0, 0, 0)):
            with pytest.raises(KeyError):
                data.row(bad)
        with pytest.raises(ValueError):
            data.theta[0] = 0.5
        with pytest.raises(ValueError):
            keys[0, 0] = 1
        assert not data.inside.flags.writeable

    def test_crossing_off_grid_rejected(self):
        grid = Grid((0.0, 0.0, 0.0), 1.0, (4, 4, 4))
        inside = np.zeros((4, 4, 4), dtype=bool)
        with pytest.raises(ConfigError, match=re.escape("(1, 4, 0, 0) off the grid")):
            _interface(grid, inside, [Cut(1, (4, 0, 0), 0.5, (4.0, 0.5, 0.0))])


def _single_node():
    """One inside node at (1, 1, 1) of a 4^3 grid and its six crossings."""
    grid = Grid((0.0, 0.0, 0.0), 1.0, (4, 4, 4))
    inside = np.zeros((4, 4, 4), dtype=bool)
    inside[1, 1, 1] = True
    crossings = []
    for axis in range(3):
        for delta in (0, 1):
            idx = [1, 1, 1]
            idx[axis] -= delta
            loc = [1.0, 1.0, 1.0]
            loc[axis] += 0.5 - delta
            crossings.append(Cut(axis, tuple(idx), 0.5, tuple(loc)))
    return grid, inside, crossings


def _replaced(crossings, key, **changes):
    return [c._replace(**changes) if _key(c) == key else c for c in crossings]


class TestValidateMessages:
    """Each check names the first offending edge in canonical order."""

    def test_missing_crossing(self):
        grid, inside, crossings = _single_node()
        kept = [c for c in crossings if _key(c) not in ((1, 1, 0, 1), (2, 1, 1, 1))]
        with pytest.raises(
            AssemblyError, match=re.escape("mixed edge without crossing record: (1, 1, 0, 1)")
        ):
            _interface(grid, inside, kept)

    def test_crossing_on_uniform_edge(self):
        grid, inside, crossings = _single_node()
        extra = [
            Cut(2, (2, 2, 2), 0.5, (2.0, 2.0, 2.5)),
            Cut(0, (3, 0, 0), 0.5, (3.5, 0.0, 0.0)),  # past the last node
        ]
        with pytest.raises(
            AssemblyError, match=re.escape("crossing on uniform edge: (0, 3, 0, 0)")
        ):
            _interface(grid, inside, crossings + extra)

    def test_theta_out_of_range(self):
        grid, inside, crossings = _single_node()
        bad = _replaced(crossings, (2, 1, 1, 0), theta=1.5)
        bad = _replaced(bad, (1, 1, 0, 1), theta=0.0)
        with pytest.raises(
            AssemblyError, match=re.escape("theta out of (0,1) on edge (1, 1, 0, 1): 0.0")
        ):
            _interface(grid, inside, bad)

    def test_theta_outside_clamp_range(self):
        grid, inside, crossings = _single_node()
        bad = _replaced(crossings, (2, 1, 1, 0), theta=1.0 - 1e-9)
        bad = _replaced(bad, (1, 1, 0, 1), theta=1e-9)
        message = (
            f"theta 1e-09 outside clamp range [{THETA_MIN}, {1.0 - THETA_MIN}]"
            " on edge (1, 1, 0, 1)"
        )
        with pytest.raises(AssemblyError, match=re.escape(message)):
            _interface(grid, inside, bad)
        # The classifiers clamp to the ends of the range, which pass.
        ends = _replaced(bad, (1, 1, 0, 1), theta=THETA_MIN)
        _interface(grid, inside, _replaced(ends, (2, 1, 1, 0), theta=1.0 - THETA_MIN))

    def test_non_finite_location(self):
        grid, inside, crossings = _single_node()
        bad = _replaced(crossings, (1, 1, 1, 1), location=(1.0, math.nan, 1.0))
        with pytest.raises(
            AssemblyError, match=re.escape("non-finite location on edge (1, 1, 1, 1)")
        ):
            _interface(grid, inside, bad)

    def test_location_off_the_edge_line(self):
        grid, inside, crossings = _single_node()
        bad = _replaced(crossings, (0, 0, 1, 1), location=(0.5, 1.0, 1.1))
        bad = _replaced(bad, (2, 1, 1, 1), location=(2.0, 1.0, 1.5))
        with pytest.raises(
            AssemblyError, match=re.escape("location off the edge line for (0, 0, 1, 1)")
        ):
            _interface(grid, inside, bad)

    def test_location_outside_the_edge(self):
        grid, inside, crossings = _single_node()
        bad = _replaced(crossings, (0, 1, 1, 1), location=(2.5, 1.0, 1.0))
        with pytest.raises(
            AssemblyError, match=re.escape("location outside the edge for (0, 1, 1, 1)")
        ):
            _interface(grid, inside, bad)

    def test_first_failing_check_of_the_first_edge(self):
        # (0, 0, 1, 1) fails the line check only; (0, 1, 1, 1), later in
        # canonical order, fails the theta check, which runs first per edge.
        grid, inside, crossings = _single_node()
        bad = _replaced(crossings, (0, 0, 1, 1), location=(0.5, 1.0, 1.1))
        bad = _replaced(bad, (0, 1, 1, 1), theta=2.0)
        with pytest.raises(AssemblyError, match=re.escape("off the edge line for (0, 0, 1, 1)")):
            _interface(grid, inside, bad)


def _mid_edge_crossings(grid, inside):
    """A crossing at the middle of every mixed edge of inside."""
    crossings = []
    for axis in range(3):
        for idx in np.argwhere(np.diff(inside, axis=axis)).tolist():
            loc = grid.node(*idx)
            loc[axis] += 0.5 * grid.h
            crossings.append(Cut(axis, tuple(idx), 0.5, tuple(loc)))
    return crossings


class TestValidateFastPath:
    """validate checks each crossing's edge and counts each axis's mixed
    edges; the faults that check finds get the messages of the full scan."""

    def test_crossing_moved_to_a_uniform_edge_of_its_axis(self):
        # The x crossings still number as many as the mixed x edges.
        grid, inside, crossings = _single_node()
        moved = _replaced(
            crossings, (0, 1, 1, 1), index=(2, 2, 2), location=(2.5, 2.0, 2.0)
        )
        with pytest.raises(
            AssemblyError, match=re.escape("mixed edge without crossing record: (0, 1, 1, 1)")
        ):
            _interface(grid, inside, moved)

    def test_crossing_past_the_last_node(self):
        # Low node x = 3 is the last along x: the edge leaves the grid.
        grid, inside, crossings = _single_node()
        extra = Cut(0, (3, 1, 1), 0.5, (3.5, 1.0, 1.0))
        with pytest.raises(
            AssemblyError, match=re.escape("crossing on uniform edge: (0, 3, 1, 1)")
        ):
            _interface(grid, inside, crossings + [extra])

    def test_crossing_past_the_last_node_of_the_fastest_axis(self):
        # One step up z from (1, 1, 3) in flat C order is (1, 2, 0), an
        # inside node; the edge past the last z node is not mixed for that.
        grid = Grid((0.0, 0.0, 0.0), 1.0, (4, 4, 4))
        inside = np.zeros(grid.shape, dtype=bool)
        inside[1, 1, 1] = inside[1, 2, 0] = True
        crossings = _mid_edge_crossings(grid, inside)
        _interface(grid, inside, crossings).validate()
        moved = _replaced(
            crossings, (2, 1, 1, 1), index=(1, 1, 3), location=(1.0, 1.0, 3.5)
        )
        with pytest.raises(
            AssemblyError, match=re.escape("mixed edge without crossing record: (2, 1, 1, 1)")
        ):
            _interface(grid, inside, moved)

    def test_missing_on_one_axis_extra_on_another(self):
        grid, inside, crossings = _single_node()
        kept = [c for c in crossings if _key(c) != (1, 1, 0, 1)]
        extra = Cut(0, (2, 2, 2), 0.5, (2.5, 2.0, 2.0))
        assert len(kept) + 1 == len(crossings)
        with pytest.raises(
            AssemblyError, match=re.escape("mixed edge without crossing record: (1, 1, 0, 1)")
        ):
            _interface(grid, inside, kept + [extra])


def _greedy_cover(intervals, low_inside) -> float:
    """Scalar reference: chain intervals greedily from the inside end of the
    edge (t = 0 or t = 1), one interval at a time."""
    changed = True
    if low_inside:
        cov = 0.0
        while changed:
            changed = False
            for t1, t2 in intervals:
                if t1 <= cov + _T_TOL and t2 > cov:
                    cov, changed = t2, True
    else:
        cov = 1.0
        while changed:
            changed = False
            for t1, t2 in intervals:
                if t2 >= cov - _T_TOL and t1 < cov:
                    cov, changed = t1, True
    return cov


def _greedy_cut(p0, axis, h, atoms, low_inside) -> float:
    """The greedy cover over the edge's intervals inside the atom spheres."""
    d0 = p0 - atoms.centers
    a = h * h
    b = 2.0 * h * d0[:, axis]
    c0 = (d0**2).sum(axis=1) - atoms.radii**2
    t_lo, t_hi = _stable_roots(a, b, c0)
    real = (b * b - 4.0 * a * c0) > 0.0
    return _greedy_cover(list(zip(t_lo[real], t_hi[real])), low_inside)


class TestUnionCover:
    def test_matches_greedy_scalar_cover_on_random_spheres(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(6):
            n = int(rng.integers(3, 7))
            # Centres within 1.5 A of each other so the spheres overlap.
            atoms = AtomSet(
                [
                    Atom(tuple(rng.uniform(-1.5, 1.5, 3)), 0.0, float(rng.uniform(0.8, 1.6)))
                    for _ in range(n)
                ]
            )
            grid = build_grid(atoms, h=0.4, probe_radius=0.5)
            data = classify_union(grid, atoms)
            origin = np.asarray(grid.origin)
            for row in range(len(data.theta)):
                axis, idx = int(data.axis[row]), data.index[row]
                p0 = origin + idx * grid.h
                t = _greedy_cut(p0, axis, grid.h, atoms, bool(data.inside[tuple(idx)]))
                assert data.theta[row] == np.clip(t, THETA_MIN, 1.0 - THETA_MIN)
                loc = p0.copy()
                loc[axis] += t * grid.h
                assert np.array_equal(data.location[row], loc)
                checked += 1
        assert checked > 1000

    def test_fixed_point_matches_greedy_on_chained_intervals(self):
        # Short intervals scattered over the edge, so that most covers chain
        # through several of them and take several rounds.
        rng = np.random.default_rng(78)
        t1 = rng.uniform(-0.3, 1.1, size=(2000, 7))
        t2 = t1 + rng.uniform(0.05, 0.35, size=t1.shape)
        t1[:, 0] = rng.uniform(-0.2, 0.0, size=len(t1))  # one reaches t = 0
        lengths = []
        for low in (True, False):
            if low:
                got = _cover(t1, t2, 0.0)
            else:
                got = -_cover(-t2, -t1, -1.0)
            for row in range(len(t1)):
                intervals = list(zip(t1[row], t2[row]))
                assert got[row] == _greedy_cover(intervals, low)
            lengths.append(np.mean(got > 0.5) if low else np.mean(got < 0.5))
        assert min(lengths) > 0.2
