"""The set-up passes bounded by the solute against whole-grid oracles.

The classifiers take node distances per atom on its block, run the distance
transform on the inflated union's bounding block and search the mixed edges
on the inside mask's bounding block.  The oracles below are the whole-grid
formulas those passes replace: every atom's distance at every node, the
distance transform of the whole grid, and np.diff over the whole mask.  The
restricted passes must give the same inside masks, the same levels wherever
they are read, and the same mixed edges, bit for bit.
"""

import importlib.util
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from gfmpbe import molecule
from gfmpbe.driver import RunConfig, build_problem, kirkwood_config
from gfmpbe.errors import AssemblyError
from gfmpbe.grid import Grid, build_grid
from gfmpbe.molecule import Atom, AtomSet
from gfmpbe.surface import (
    CLASSIFY_TOL,
    InterfaceData,
    _radial_exit_clear,
    _ses_levels,
    classify_sphere,
    classify_ses_grid,
    classify_union,
)


def _workloads():
    """bench/workloads.py, for its Kirkwood offsets, desk poses and chains."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _whole_grid_distance(grid: Grid, center) -> np.ndarray:
    dx, dy, dz = ((grid.axis_coords(a) - center[a]) ** 2 for a in range(3))
    return np.sqrt((dx[:, None, None] + dy[:, None]) + dz)


def _oracle_union_inside(grid: Grid, atoms: AtomSet) -> np.ndarray:
    signed = np.full(grid.shape, np.inf)
    for center, radius in zip(atoms.centers, atoms.radii):
        np.minimum(signed, _whole_grid_distance(grid, center) - radius, out=signed)
    return signed < CLASSIFY_TOL


def _oracle_levels(grid: Grid, atoms: AtomSet, probe: float):
    """psi from every atom at every node and the whole-grid transform, with
    the SAS mask it is exact on."""
    sas_r = atoms.radii + probe
    depth = np.full(grid.shape, -np.inf)
    deepest = np.zeros(grid.shape, dtype=int)
    for ia, (center, radius) in enumerate(zip(atoms.centers, atoms.radii)):
        v = (radius + probe) - _whole_grid_distance(grid, center)
        upd = v > depth
        depth[upd] = v[upd]
        deepest[upd] = ia
    sas = depth > -CLASSIFY_TOL
    edt = distance_transform_edt(sas, sampling=(grid.h,) * 3)
    exact = _radial_exit_clear(grid.nodes()[sas], deepest[sas], atoms.centers, sas_r)
    depth[sas] = np.where(exact, depth[sas], edt[sas])
    return depth - probe, sas


def _oracle_mixed_edges(inside: np.ndarray) -> np.ndarray:
    """(axis, i, j, k) of every mixed edge, canonical order."""
    keys = [
        np.column_stack((np.full(len(idx), a), idx))
        for a, idx in ((a, np.argwhere(np.diff(inside, axis=a))) for a in range(3))
    ]
    return np.concatenate(keys)


def _edge_ends(keys: np.ndarray):
    low = tuple(keys[:, 1:].T)
    high = keys[:, 1:].copy()
    high[np.arange(len(keys)), keys[:, 0]] += 1
    return low, tuple(high.T)


def _check_union(grid: Grid, atoms: AtomSet) -> InterfaceData:
    data = classify_union(grid, atoms)
    inside = _oracle_union_inside(grid, atoms)
    np.testing.assert_array_equal(data.inside, inside)
    np.testing.assert_array_equal(data.crossings, _oracle_mixed_edges(inside))
    return data


def _check_ses(grid: Grid, atoms: AtomSet, probe: float) -> InterfaceData:
    """Inside mask, crossings, and psi at the SAS nodes and at both ends of
    every mixed edge all match the oracle."""
    psi, sas = _oracle_levels(grid, atoms, probe)
    levels = _ses_levels(grid, atoms, probe)
    np.testing.assert_array_equal(levels[sas], psi[sas])
    data = classify_ses_grid(grid, atoms, probe)
    inside = psi > -CLASSIFY_TOL
    np.testing.assert_array_equal(data.inside, inside)
    keys = _oracle_mixed_edges(inside)
    np.testing.assert_array_equal(data.crossings, keys)
    for end in _edge_ends(keys):
        np.testing.assert_array_equal(levels[end], psi[end])
    return data


class TestAgainstWholeGrid:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kirkwood_offsets(self, seed):
        cfg = _workloads().kirkwood_65(seed, h=0.5).configs[0]
        grid = build_grid(cfg.atoms, cfg.h, box=cfg.box)
        _check_union(grid, cfg.atoms)
        _check_ses(grid, cfg.atoms, 1.4)

    def test_blocks_clipped_at_box_faces(self):
        # the sphere pokes out of the low x face and the high z face
        grid = Grid((-1.0, -4.0, -4.0), 0.5, (12, 17, 11))
        atoms = AtomSet(
            [Atom((0.3, 0.1, 0.6), 1.0, 2.0), Atom((1.9, 0.4, 0.2), 0.0, 1.5)]
        )
        data = _check_union(grid, atoms)
        assert data.inside[0].any() and data.inside[:, :, -1].any()
        _check_ses(grid, atoms, 1.4)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_desk_poses(self, seed):
        for atoms in _workloads().solute_poses(seed, 4, 0.5):
            grid = build_grid(atoms, 0.5, 1.4)
            _check_union(grid, atoms)
            _check_ses(grid, atoms, 1.4)

    def test_branched_chain(self):
        atoms = _workloads().branched_chain(7, 40)
        grid = build_grid(atoms, 0.5, 1.4)
        _check_union(grid, atoms)
        _check_ses(grid, atoms, 1.4)

    def test_probe_zero_is_the_union(self):
        atoms = _workloads().solute_poses(3, 1, 0.5)[0]
        grid = build_grid(atoms, 0.5, 0.0)
        assert classify_ses_grid(grid, atoms, 0.0) == _check_union(grid, atoms)

    def test_coarse_grid_edge_ends_outside_the_sas(self):
        # At h = 2 the outside end of a mixed edge can leave the inflated
        # union, where psi is read although no SAS node is there.
        atoms = _workloads().solute_poses(1, 1, 0.5)[0]
        grid = build_grid(atoms, 2.0, 1.4)
        data = _check_ses(grid, atoms, 1.4)
        _, sas = _oracle_levels(grid, atoms, 1.4)
        _, high = _edge_ends(data.crossings)
        low = tuple(data.index.T)
        assert (~sas[high] | ~sas[low]).any()

    def test_no_inside_node(self):
        grid = Grid((0.0, 0.0, 0.0), 0.5, (8, 8, 8))
        for center in ((20.0, 1.0, 1.0), (5.5, 1.0, 1.0)):  # far; SAS reaches
            atoms = AtomSet([Atom(center, 1.0, 1.0)])
            assert len(_check_union(grid, atoms).theta) == 0
            assert len(_check_ses(grid, atoms, 1.4).theta) == 0


@pytest.mark.parametrize("classify", [classify_union, classify_ses_grid])
def test_point_blocks_leave_the_interface_unchanged(monkeypatch, classify):
    # the union's cut fractions and the SAS radial exits go in point blocks
    atoms = _workloads().branched_chain(7, 12)
    grid = build_grid(atoms, 0.5, 1.4)
    whole = classify(grid, atoms)
    monkeypatch.setattr(molecule, "_BLOCK_BYTES", 4096)
    assert classify(grid, atoms) == whole


def _block_interface():
    """A 2^3 inside block at nodes 3..4 of an 8^3 grid and its crossings: its
    widened bounding block is nodes 2..5, away from every grid face."""
    grid = Grid((0.0, 0.0, 0.0), 1.0, (8, 8, 8))
    inside = np.zeros(grid.shape, dtype=bool)
    inside[3:5, 3:5, 3:5] = True
    keys = _oracle_mixed_edges(inside)
    location = keys[:, 1:] * 1.0
    location[np.arange(len(keys)), keys[:, 0]] += 0.5
    return grid, inside, keys, location


class TestValidateOutsideTheBlock:
    def test_block_interface_is_valid(self):
        grid, inside, keys, location = _block_interface()
        theta = np.full(len(keys), 0.5)
        InterfaceData(grid, inside, keys[:, 0], keys[:, 1:], theta, location)

    def test_missing_crossing_at_the_rim(self):
        # edge (0, 4, 3, 3) joins inside node x = 4 to the rim node x = 5
        grid, inside, keys, location = _block_interface()
        keep = ~np.all(keys == (0, 4, 3, 3), axis=1)
        assert keep.sum() == len(keys) - 1
        with pytest.raises(
            AssemblyError,
            match=re.escape("mixed edge without crossing record: (0, 4, 3, 3)"),
        ):
            InterfaceData(
                grid, inside, keys[keep, 0], keys[keep, 1:],
                np.full(keep.sum(), 0.5), location[keep],
            )

    @pytest.mark.parametrize("moved", [False, True])
    def test_crossing_on_a_uniform_edge_outside(self, moved):
        # added, the counts differ; moved from a rim edge, they agree
        grid, inside, keys, location = _block_interface()
        far, far_loc = np.array([[0, 6, 0, 7]]), np.array([[6.5, 0.0, 7.0]])
        if moved:
            keep = ~np.all(keys == (0, 4, 3, 3), axis=1)
            keys, location = keys[keep], location[keep]
        keys, location = np.concatenate((keys, far)), np.concatenate((location, far_loc))
        message = (
            "mixed edge without crossing record: (0, 4, 3, 3)"
            if moved
            else "crossing on uniform edge: (0, 6, 0, 7)"
        )
        with pytest.raises(AssemblyError, match=re.escape(message)):
            InterfaceData(
                grid, inside, keys[:, 0], keys[:, 1:], np.full(len(keys), 0.5), location
            )


def _peak_fields(fn, *args) -> float:
    """Peak traced bytes of fn(*args) above those held at its start, in
    float fields of the grid of its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / (8 * np.prod(result.grid.shape))


class TestSetupMemory:
    def test_sphere_classification_makes_no_float_field(self):
        # 129^3 nodes over +-16 A; the parent's whole-grid levels took 2.0
        cfg = kirkwood_config(h=0.25, box_half=16.0)
        grid = build_grid(cfg.atoms, cfg.h, box=cfg.box)
        assert grid.shape == (129, 129, 129)
        center = (0.1, -0.05, 0.07)
        assert _peak_fields(classify_sphere, grid, center, 2.0) < 0.5

    @pytest.mark.parametrize("surface", ["ses-grid", "vdw"])
    def test_build_peak_does_not_grow_with_the_atom_count(self, surface):
        chain = _workloads().branched_chain
        configs = [RunConfig(atoms=chain(7, n), h=0.5, surface=surface) for n in (40, 160)]
        peaks = [_peak_fields(build_problem, cfg) for cfg in configs]
        assert peaks[1] <= peaks[0], peaks
