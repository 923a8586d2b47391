"""End-to-end tests of the command-line interface and its exit codes, and
of the package's public names."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gfmpbe
from gfmpbe import cli, driver
from gfmpbe.cli import build_parser, main
from gfmpbe.control import ControllerConfig
from gfmpbe.driver import kirkwood_config
from gfmpbe.errors import DivergenceError
from gfmpbe.grid import Grid, read_field_binary
from gfmpbe.surface import AXIS_NAMES, THETA_MIN, classify_sphere, export_interface


def test_public_names_resolve():
    names = gfmpbe.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(gfmpbe, n)] == []


def _run_module(*args) -> subprocess.CompletedProcess:
    """python args in a new process, with the gfmpbe under test on its path,
    so that a bare pytest in a checkout runs it too."""
    src = str(Path(gfmpbe.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def _huge_lod_args(atoms) -> list[str]:
    """An LOD solve of a 1e300 charge, whose first step overflows."""
    return ["solve", "--atoms", str(atoms), "--h", "1.0", "--surface", "vdw",
            "--scheme", "lod", "--ic", "zero", "--dt", "1e8", "--tend", "5e8",
            "--tmin-stop", "0", "--box", "-6", "-6", "-6", "6", "6", "6",
            "--ionic", "0.1178"]


@pytest.fixture
def atom_file(tmp_path):
    path = tmp_path / "atoms.txt"
    path.write_text("# one buried charge\n0.0 0.0 0.0 1.0 1.7\n")
    return str(path)


def _solve_args(atom_file, extra=()):
    return [
        "solve",
        "--atoms",
        atom_file,
        "--h",
        "0.5",
        "--surface",
        "sphere",
        "--dt",
        "0.1",
        "--tend",
        "0.3",
        "--ic",
        "zero",
        "--box",
        "-2",
        "-2",
        "-2",
        "2",
        "2",
        "2",
        *extra,
    ]


class TestSolve:
    def test_smoke_with_outputs(self, atom_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        for mode, suffix in (("u", ".bin"), ("phi", ".csv")):
            fieldf = tmp_path / f"field{suffix}"
            args = _solve_args(atom_file, ["--trace", str(trace), "--field", str(fieldf),
                                           "--field-mode", mode])
            rc = main(args)
            assert rc == 0
            out = capsys.readouterr().out
            assert "final energy:" in out
            assert "stopped: horizon" in out.splitlines()
            # the files hold what the library writes for the same run
            cfg = cli._config_from_args(build_parser().parse_args(args))
            problem = driver.build_problem(cfg)
            want = driver.run(cfg, problem=problem)
            want.write_csv(tmp_path / "want.csv")
            assert trace.read_text() == (tmp_path / "want.csv").read_text()
            assert len(trace.read_text().splitlines()) == want.steps + 2
            driver.export_potential(want.final_field, cfg.atoms, cfg.params, mode,
                                    tmp_path / f"want{suffix}",
                                    inside=problem.data.inside)
            assert fieldf.read_bytes() == (tmp_path / f"want{suffix}").read_bytes()
        dumped = read_field_binary(tmp_path / "field.bin")
        assert dumped.grid == problem.grid
        assert np.array_equal(dumped.values, want.final_field.values)

    def test_missing_atoms_file_is_io_error(self, tmp_path, capsys):
        rc = main(_solve_args(str(tmp_path / "nope.txt")))
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_atoms_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0 0 1.0\n")
        rc = main(_solve_args(str(bad)))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_sphere_with_two_atoms_is_config_error(self, tmp_path):
        two = tmp_path / "two.txt"
        two.write_text("0 0 0 1.0 1.5\n2.5 0 0 -1.0 1.2\n")
        rc = main(_solve_args(str(two)))
        assert rc == 2

    def test_inconsistent_imported_interface_is_config_error(
        self, atom_file, tmp_path, capsys, monkeypatch
    ):
        # theta 1e-9 parses, but lies below the clamp range: the import
        # rejects it, naming the edge, before any operator is built; exit 2
        # with a one-line message, no traceback.
        def never(*args, **kwargs):
            raise AssertionError("operators built from an inconsistent interface")

        monkeypatch.setattr(driver, "build_split_operators", never)
        path = tmp_path / "bad.srf"
        sphere = classify_sphere(Grid((-2.0,) * 3, 0.5, (9, 9, 9)), (0, 0, 0), 1.7)
        export_interface(sphere, path)
        lines = path.read_text().splitlines()
        row = next(n for n, line in enumerate(lines) if line.startswith("cross"))
        parts = lines[row].split()
        parts[5] = "1e-09"
        lines[row] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--atoms", atom_file, "--surface", f"import:{path}"])
        assert rc == 2
        err = capsys.readouterr().err
        key = (AXIS_NAMES.index(parts[1]), *(int(v) for v in parts[2:5]))
        assert err == (
            f"error: theta 1e-09 outside clamp range [{THETA_MIN}, {1.0 - THETA_MIN}]"
            f" on edge {key}\n"
        )

    def test_atom_outside_the_box_is_config_error(self, tmp_path, capsys):
        far = tmp_path / "far.txt"
        far.write_text("5.2 0 0 1.0 1.5\n")
        rc = main(_solve_args(str(far)))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: point (5.2, 0.0, 0.0) lies outside the grid box")
        assert "Traceback" not in err and "np.float64" not in err

    def test_atom_on_a_box_face_is_config_error(self, tmp_path, capsys):
        # the face node at the centre is where the Dirichlet value is singular
        face = tmp_path / "face.txt"
        face.write_text("4 0 0 1.0 1.5\n")
        rc = main(["solve", "--atoms", str(face), "--h", "0.5",
                   "--box", "-4", "-4", "-4", "4", "4", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            "error: evaluation point (4.0, 0.0, 0.0) within 1e-12 A of atom 0"
            " center (4.0, 0.0, 0.0)\n"
        )

    def test_box_cutting_the_solute_is_config_error(self, atom_file, capsys):
        # the R = 1.7 sphere crosses the upper y face at 1.5
        args = _solve_args(atom_file)
        at = args.index("--box")
        args[at + 1 : at + 7] = ["-2", "-2", "-2", "2", "1.5", "2"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: the solute reaches the upper y face of the box (y = 1.5): an"
            " inside node lies on it; widen the box\n"
        )

    def test_wall_time_covers_the_whole_run(self, atom_file, capsys):
        # lpb start: build and CG run before the march, outside trace.wall_time
        args = _solve_args(atom_file)
        args[args.index("--ic") + 1] = "lpb"
        assert main(args) == 0
        times = {}
        for line in capsys.readouterr().out.splitlines():
            key, _, value = line.partition(": ")
            if key in ("wall time", "setup time", "march time"):
                times[key] = float(value.removesuffix(" s"))
        assert set(times) == {"wall time", "setup time", "march time"}
        assert times["wall time"] >= times["march time"]
        assert times["wall time"] > 0.0
        # The build and the march are disjoint parts of the run.  Each
        # printed value is rounded to the nearest ms, so the three roundings
        # may add up to 1.5 ms.
        assert times["setup time"] + times["march time"] <= times["wall time"] + 1.5e-3

    def test_divergence_exit_code(self, tmp_path, capsys):
        hot = tmp_path / "hot.txt"
        hot.write_text("0 0 0 1e6 1.7\n")
        rc = main(_solve_args(str(hot), ["--tmin-stop", "5"]))
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ionic", "inf"], "ionic_strength must be finite, got inf"),
            (["--eps-out", "inf"], "eps_out must be finite, got inf"),
            (["--eps-in", "nan"], "eps_in must be finite, got nan"),
            (["--probe", "nan"], "probe_radius must be finite, got nan"),
            (["--h", "nan"], "h must be finite, got nan"),
            (["--box", "nan", "-8", "-8", "8", "8", "8"],
             "box corners must be finite, got (nan, -8.0, -8.0, 8.0, 8.0, 8.0)"),
        ],
    )
    def test_nonfinite_physical_input_is_config_error(self, atom_file, flags, message,
                                                      capsys):
        rc = main(["solve", "--atoms", atom_file, "--surface", "vdw", *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--h", "0"], "h must be positive, got 0.0"),
            (["--probe", "-1"], "probe_radius must be nonnegative, got -1.0"),
            (["--box", "1", "1", "1", "0", "0", "0"],
             "box upper corner must exceed lower corner, got"
             " (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)"),
        ],
    )
    def test_bad_geometry_is_config_error(self, atom_file, flags, message, capsys):
        rc = main(["solve", "--atoms", atom_file, "--surface", "vdw", *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_utf8_input_is_format_error(self, atom_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00bad")
        decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        for args, what in (
            (["--atoms", str(bad), "--h", "0.5"], "atom"),
            (["--atoms", atom_file, "--surface", f"import:{bad}"], "interface"),
        ):
            assert main(["solve", *args]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {what} file {bad} is not UTF-8 text: {decode}\n"

    def test_imported_surface_takes_no_probe(self, atom_file, tmp_path, capsys,
                                             monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("problem built")

        monkeypatch.setattr(driver, "build_problem", never)
        path = tmp_path / "iface.srf"
        rc = main(["solve", "--atoms", atom_file, "--surface", f"import:{path}",
                   "--probe", "1.4"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --probe does not apply to --surface import:, whose file fixes"
            " the surface\n"
        )

    def test_overflow_inside_an_lod_step_is_divergence(self, tmp_path, capsys):
        # A huge charge overflows the first LOD step's sweeps; the trailing
        # half substep finds the non-finite field that the step made.
        huge = tmp_path / "huge.txt"
        huge.write_text("0 0 0 1e300 2.0\n")
        with np.errstate(all="ignore"):
            rc = main(["solve", "--atoms", str(huge), "--h", "1.0", "--surface",
                       "sphere", "--scheme", "lod", "--ic", "zero", "--dt", "1e8",
                       "--tend", "5e8", "--tmin-stop", "0", "--box", "-6", "-6",
                       "-6", "6", "6", "6", "--ionic", "0.1178"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "diverged: step failed: non-finite field entering nonlinear substep"
            " (step 1, t=1e+08, dt=1e+08)\n"
        )

    @pytest.mark.parametrize("warn", ["default", "error"])
    def test_overflowing_march_writes_one_line(self, tmp_path, warn):
        # numpy's overflow warnings stay out of stderr, and under -W error
        # they end no run in a traceback: the exit code is 3.
        huge = tmp_path / "huge.txt"
        huge.write_text("0 0 0 1e300 2.0\n")
        proc = _run_module("-W", warn, "-m", "gfmpbe.cli", *_huge_lod_args(huge))
        assert proc.returncode == 3
        assert proc.stderr == (
            "diverged: step failed: non-finite field entering nonlinear substep"
            " (step 1, t=1e+08, dt=1e+08)\n"
        )

    def test_overflowing_run_raises_divergence_under_error_filter(self, tmp_path):
        huge = tmp_path / "huge.txt"
        huge.write_text("0 0 0 1e300 2.0\n")
        cfg = cli._config_from_args(build_parser().parse_args(_huge_lod_args(huge)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="step failed"):
                driver.run(cfg)

    def test_vdw_surface_smoke(self, atom_file):
        rc = main(
            [
                "solve",
                "--atoms",
                atom_file,
                "--h",
                "0.5",
                "--surface",
                "vdw",
                "--probe",
                "0.5",
                "--dt",
                "0.1",
                "--tend",
                "0.2",
                "--ic",
                "zero",
            ]
        )
        assert rc == 0


class TestKirkwood:
    def test_smoke(self, capsys):
        rc = main(
            ["kirkwood", "--h", "2.0", "--dt", "0.1", "--tend", "0.3", "--ic", "zero"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final energy:" in out
        assert "march time:" in out

    @pytest.mark.parametrize("dt", [0.0001, 0.001, 2.0])
    def test_controller_is_the_fixed_kirkwood_formula(self, dt):
        # the ControllerConfig that kirkwood built by hand before it ran
        # through _config_from_args
        args = build_parser().parse_args(["kirkwood", "--dt", str(dt)])
        cfg = cli._config_from_args(args)
        assert cfg.controller == ControllerConfig(
            kind="Constant",
            dt0=dt,
            dt_min=min(0.001, dt),
            dt_max=max(1.0, dt),
            tol=1e-4,
            t_end=50.0,
            t_min_stop=1.0,
        )
        want = kirkwood_config(h=0.25, controller=cfg.controller)
        for name in ("h", "surface", "probe_radius", "scheme", "ic", "params", "box"):
            assert getattr(cfg, name) == getattr(want, name)
        assert cfg.atoms.atoms == want.atoms.atoms

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dt", "inf"], "dt_max must be finite"),
            (["--dt", "nan"], "dt0 must be finite"),
            (["--tol", "nan"], "tol must be a number"),
            (["--tend", "nan"], "t_end must be a number"),
        ],
    )
    def test_nonfinite_input_is_config_error(self, flags, message, capsys):
        rc = main(["kirkwood", "--h", "2.0", "--ic", "zero", *flags])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestKirkwoodPath:
    """Without --atoms, convergence, schedule and compare-controllers run the
    built-in Kirkwood problem, which fixes the solute flags."""

    COMMANDS = {
        "convergence": ["convergence", "--vary", "dt", "--values", "0.2", "0.1", "0.05"],
        "schedule": ["schedule", "--switch", "0:0.1"],
        "compare-controllers": ["compare-controllers"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "flags",
        [["--surface", "vdw"], ["--probe", "1.0"], ["--ionic", "0.5"],
         ["--eps-in", "2"], ["--eps-out", "40"], ["--box", "-4", "-4", "-4", "4", "4", "4"]],
        ids=lambda flags: flags[0],
    )
    def test_solute_flag_needs_atoms(self, command, flags, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("problem built despite a dropped flag")

        monkeypatch.setattr(cli, "build_problem", never)
        monkeypatch.setattr(driver, "build_problem", never)
        rc = main([*self.COMMANDS[command], "--h", "2.0", *flags])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {flags[0]} needs --atoms: the built-in Kirkwood problem fixes it\n"
        )

    @pytest.mark.parametrize("command", ["convergence", "compare-controllers"])
    @pytest.mark.parametrize(
        "flags", [["--trace", "t.csv"], ["--field", "f.bin"], ["--field-mode", "phi"]],
        ids=lambda flags: flags[0],
    )
    def test_studies_take_no_output_flags(self, command, flags, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], "--h", "2.0", *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestConvergence:
    def test_smoke_without_atoms(self, capsys):
        rc = main(
            [
                "convergence",
                "--vary",
                "dt",
                "--values",
                "0.2",
                "0.1",
                "0.05",
                "--h",
                "2.0",
                "--tend",
                "0.4",
                "--ic",
                "zero",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rate:" in out
        assert "0.2" in out


    def test_diverged_member_and_reference(self, monkeypatch, capsys):
        # run stands in for each member: E = -10 + dt^2, or a DivergenceError
        # for the dts in diverging.
        diverging = {0.2}

        def fake_run(cfg, problem=None):
            dt = cfg.controller.dt0
            if dt in diverging:
                raise DivergenceError("runaway energy inf", 3, 0.6, dt)
            return SimpleNamespace(final_energy=-10.0 + dt**2)

        monkeypatch.setattr(driver, "run", fake_run)
        args = ["convergence", "--vary", "dt", "--values", "0.4", "0.2", "0.1",
                "0.05", "--h", "2.0", "--ic", "zero"]
        header = f"{'dt':>10}  {'energy':>14}  {'error':>12}"
        assert main(args) == 0
        # the fit takes 0.4 and 0.1, errors 0.1575 and 0.0075
        assert capsys.readouterr().out.splitlines() == [
            header,
            f"{0.4:>10.4g}  {-9.84:>14.6f}  {0.1575:>12.4e}",
            f"{0.2:>10.4g}  {'diverged':>14}",
            f"{0.1:>10.4g}  {-9.99:>14.6f}  {0.0075:>12.4e}",
            f"{0.05:>10.4g}  {-9.9975:>14.6f}  {math.nan:>12.4e}",
            f"rate: {math.log(21.0) / math.log(4.0):.3f}",
        ]
        diverging.add(0.05)
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines() == [
            header,
            "rate: nan (reference run diverged)",
        ]


class TestSchedule:
    def test_smoke(self, capsys):
        rc = main(
            [
                "schedule",
                "--switch",
                "0:0.2",
                "--switch",
                "0.4:0.1",
                "--h",
                "2.0",
                "--tend",
                "0.8",
                "--ic",
                "zero",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final energy:" in out
        assert "stopped: horizon" in out.splitlines()
        assert "march time:" in out

    def test_outputs_without_atoms(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        fieldf = tmp_path / "field.csv"
        rc = main(["schedule", "--switch", "0:0.1", "--h", "1.0", "--tend", "0.3",
                   "--trace", str(trace), "--field", str(fieldf)])
        assert rc == 0
        assert "steps: 3" in capsys.readouterr().out.splitlines()
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,t,dt,e_n,F,E_sol,dE"
        assert [line.split(",")[2] for line in lines[1:]] == ["0.1"] * 4
        assert fieldf.read_text().splitlines()[0] == "i,j,k,value"

    def test_bad_switch_spec(self, capsys):
        rc = main(["schedule", "--switch", "nonsense", "--h", "2.0"])
        assert rc == 2

    @pytest.mark.parametrize("spec", ["0:nan", "0:inf"])
    def test_nonfinite_switch_dt_is_config_error(self, spec, capsys):
        rc = main(["schedule", "--switch", spec, "--h", "2.0", "--ic", "zero"])
        assert rc == 2
        assert "positive and finite" in capsys.readouterr().err


class TestCompareControllers:
    def test_smoke(self, capsys):
        rc = main(
            ["compare-controllers", "--h", "2.0", "--tend", "6.0", "--ic", "zero"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "reference(0.01)" in out
        for name in ("constant", "manual1", "nipid"):
            assert name in out

    def test_wall_column_covers_each_run(self, capsys):
        # lpb start: each member's CG runs before its march
        rc = main(["compare-controllers", "--h", "2.0", "--tend", "6.0", "--ic", "lpb"])
        assert rc == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["controller", "energy", "steps", "wall(s)", "march(s)"]
        assert len(rows) == 1 + len(cli._CONTROLLER_NAMES)
        for row in rows:
            wall, march = (float(v) for v in row.split()[-2:])
            assert wall >= march


class TestScaling:
    def test_smoke(self, capsys):
        rc = main(["scaling", "--sizes", "9", "17", "--steps", "3"])
        assert rc == 0
        assert "slope:" in capsys.readouterr().out


class TestParser:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_solve_requires_atoms(self):
        with pytest.raises(SystemExit):
            main(["solve"])

    def test_bad_scheme_choice(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["kirkwood", "--scheme", "imex"])

    def test_module_entry_point(self, tmp_path):
        atoms = tmp_path / "a.txt"
        atoms.write_text("0 0 0 1.0 1.7\n")
        proc = _run_module("-m", "gfmpbe.cli", *_solve_args(str(atoms)))
        assert proc.returncode == 0
        assert "final energy:" in proc.stdout
