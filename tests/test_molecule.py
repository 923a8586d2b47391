"""Tests for the solute description and singular-charge fields."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfmpbe.errors import ConfigError, ParseError, SingularityError
from gfmpbe.grid import Field, Grid
from gfmpbe.molecule import (
    Atom,
    AtomSet,
    CHARGE_FACTOR,
    COULOMB_KCAL,
    KBT_KCAL,
    PhysicalParams,
    debye_kappa_sq,
    dirichlet_boundary,
    green_gradient,
    green_potential,
    parse_atoms,
    solvation_energy,
)


def _born_energy(q: float, r: float, eps_in: float, eps_out: float) -> float:
    """Closed-form solvation energy of a centered charge in a sphere, no salt."""
    return 0.5 * COULOMB_KCAL * q * q / r * (1.0 / eps_out - 1.0 / eps_in)


class TestConstants:
    def test_charge_factor_value(self):
        # The often-quoted half-factor C/2 ~ 280.38 pins the unit system.
        assert CHARGE_FACTOR / 2 == pytest.approx(280.379, abs=1e-3)

    def test_born_oracle_matches_published_scale(self):
        # Unit charge, R = 2, eps 1/80: the standard desk benchmark value.
        assert _born_energy(1.0, 2.0, 1.0, 80.0) == pytest.approx(-81.98, abs=1e-2)

    def test_debye_relation(self):
        assert debye_kappa_sq(0.15) == pytest.approx(8.486902807 * 0.15, rel=1e-12)
        assert debye_kappa_sq(0.0) == 0.0
        with pytest.raises(ConfigError):
            debye_kappa_sq(-0.1)


class TestAtomParsing:
    def test_basic_parse(self):
        text = "# comment\n0 0 0 1.0 2.0\n\n1.5 0 0 -0.5 1.2\n"
        atoms = parse_atoms(text)
        assert len(atoms) == 2
        assert atoms.atoms[0].charge == 1.0
        assert atoms.atoms[1].radius == 1.2

    def test_line_numbers_in_errors(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_atoms("0 0 0 1 1\n# ok\n1 2 3 4\n")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_atoms("0 0 zero 1 1\n")

    def test_nonpositive_radius(self):
        with pytest.raises(ParseError, match="radius"):
            parse_atoms("0 0 0 1 0\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_atoms("# nothing here\n")

    def test_duplicate_centers_rejected(self):
        with pytest.raises(ConfigError, match="coincident"):
            parse_atoms("0 0 0 1 1\n0 0 0 -1 2\n")


class TestPhysicalParams:
    def test_kappa_from_ionic_strength(self):
        p = PhysicalParams(ionic_strength=0.15)
        assert p.kappa_sq == pytest.approx(1.27303542105, rel=1e-9)

    def test_ionic_back_computed(self):
        p = PhysicalParams(kappa_sq=1.0)
        assert p.ionic_strength == pytest.approx(1.0 / 8.486902807, rel=1e-12)

    def test_defaults_saltless(self):
        p = PhysicalParams()
        assert p.kappa_sq == 0.0
        # the unit system is the module's CHARGE_FACTOR and KBT_KCAL, not a field
        assert [f.name for f in fields(p)] == [
            "eps_in", "eps_out", "ionic_strength", "kappa_sq"
        ]

    def test_eps_ordering_enforced(self):
        with pytest.raises(ConfigError):
            PhysicalParams(eps_in=80.0, eps_out=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["eps_in", "eps_out", "ionic_strength", "kappa_sq"])
    def test_nonfinite_value_rejected_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got {value}$"):
            PhysicalParams(**{name: value})

    def test_overflowing_kappa_sq_rejected(self):
        with pytest.raises(ConfigError, match="kappa_sq must be nonnegative and finite"):
            PhysicalParams(ionic_strength=1e308)

    @pytest.mark.parametrize(
        "ionic_strength, kappa_sq, message",
        [
            (-1.0, 0.5, "ionic_strength must be nonnegative, got -1.0 with kappa_sq 0.5"),
            (0.15, 0.0, "ionic_strength 0.15 gives kappa_sq 1.27303542105, not the"
             " kappa_sq 0.0 given"),
            (0.0, 1e-300, "ionic_strength 0.0 gives kappa_sq 0.0, not the kappa_sq"
             " 1e-300 given"),
        ],
    )
    def test_contradictory_screening_rejected_naming_both(
        self, ionic_strength, kappa_sq, message
    ):
        with pytest.raises(ConfigError) as exc:
            PhysicalParams(ionic_strength=ionic_strength, kappa_sq=kappa_sq)
        assert str(exc.value) == message

    def test_agreeing_screening_accepted_and_replace_round_trips(self):
        # DEBYE_COEFF * (k / DEBYE_COEFF) != k for ~5% of these k, and replace
        # passes both fields of a built PhysicalParams back to __post_init__.
        mismatched = 0
        for k in np.linspace(0.0, 10.0, 1001):
            built = PhysicalParams(kappa_sq=float(k))
            mismatched += debye_kappa_sq(built.ionic_strength) != built.kappa_sq
            again = replace(built, eps_in=2.0)
            assert (again.ionic_strength, again.kappa_sq) == (
                built.ionic_strength, built.kappa_sq
            )
        assert mismatched > 0
        p = PhysicalParams(ionic_strength=0.15, kappa_sq=debye_kappa_sq(0.15))
        assert p.kappa_sq == debye_kappa_sq(0.15)


class TestGreenPotential:
    def setup_method(self):
        self.atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1.0, 2.0)])
        self.params = PhysicalParams(eps_in=1.0, eps_out=80.0)

    def test_single_charge_value(self):
        # C*q/(eps_in*r) at r = 4
        v = green_potential(self.atoms, (4.0, 0.0, 0.0), self.params)
        assert v == pytest.approx(CHARGE_FACTOR / 4.0, rel=1e-13)

    def test_superposition(self):
        two = AtomSet([Atom((0, 0, 0), 1.0, 1.0), Atom((3, 0, 0), -0.5, 1.0)])
        p = (1.0, 2.0, 0.5)
        val = green_potential(two, p, self.params)
        parts = sum(
            green_potential(AtomSet([a]), p, self.params) for a in two.atoms
        )
        assert val == pytest.approx(parts, rel=1e-13)

    def test_batch_matches_single(self):
        pts = np.array([[4.0, 0, 0], [0, 3.0, 1.0], [-2.0, -2.0, 5.0]])
        batch = green_potential(self.atoms, pts, self.params)
        singles = [green_potential(self.atoms, p, self.params) for p in pts]
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    def test_singularity_guard(self):
        for fn in (green_potential, green_gradient, dirichlet_boundary):
            with pytest.raises(SingularityError):
                fn(self.atoms, (0.0, 0.0, 0.0), self.params)

    def test_singularity_error_names_the_atom_and_the_point(self):
        atoms = AtomSet(
            [Atom((0.0, 0.0, 0.0), 1.0, 2.0), Atom((1.5, 0.5, 0.0), -1.0, 1.0)]
        )
        pts = np.array([[3.0, 0.0, 0.0], [1.5, 0.5, 0.0]])
        message = (
            "evaluation point (1.5, 0.5, 0.0) within 1e-12 A of atom 1"
            " center (1.5, 0.5, 0.0)"
        )
        with pytest.raises(SingularityError, match=re.escape(message)):
            dirichlet_boundary(atoms, pts, self.params)

    def test_gradient_matches_finite_difference(self):
        p = np.array([1.3, -0.7, 2.1])
        grad = green_gradient(self.atoms, p, self.params)
        eps = 1e-6
        for a in range(3):
            dp = np.zeros(3)
            dp[a] = eps
            fd = (
                green_potential(self.atoms, p + dp, self.params)
                - green_potential(self.atoms, p - dp, self.params)
            ) / (2 * eps)
            assert grad[a] == pytest.approx(fd, rel=1e-6)

    def test_gradient_batch_shape(self):
        pts = np.array([[4.0, 0, 0], [0, 3.0, 1.0]])
        assert green_gradient(self.atoms, pts, self.params).shape == (2, 3)


class TestDirichletBoundary:
    def test_no_salt_is_scaled_coulomb(self):
        atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1.0, 2.0)])
        params = PhysicalParams(eps_in=1.0, eps_out=80.0)
        p = (5.0, 0.0, 0.0)
        expect = green_potential(atoms, p, params) * params.eps_in / params.eps_out
        assert dirichlet_boundary(atoms, p, params) == pytest.approx(expect, rel=1e-13)

    def test_screening_decay(self):
        atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1.0, 2.0)])
        params = PhysicalParams(eps_in=1.0, eps_out=80.0, kappa_sq=1.0)
        d = 6.0
        decay = math.exp(-d * math.sqrt(1.0 / 80.0))
        expect = CHARGE_FACTOR / 80.0 / d * decay
        assert dirichlet_boundary(atoms, (d, 0, 0), params) == pytest.approx(
            expect, rel=1e-13
        )

    @given(
        q=st.floats(-2, 2),
        d=st.floats(3.0, 20.0),
        kappa_sq=st.floats(0.0, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_in_charge_and_positive_decay(self, q, d, kappa_sq):
        params = PhysicalParams(eps_in=1.0, eps_out=80.0, kappa_sq=kappa_sq)
        atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1.0, 1.0)])
        base = dirichlet_boundary(atoms, (d, 0.0, 0.0), params)
        scaled_atoms = AtomSet([Atom((0.0, 0.0, 0.0), q, 1.0)])
        val = dirichlet_boundary(scaled_atoms, (d, 0.0, 0.0), params)
        assert val == pytest.approx(q * base, rel=1e-12, abs=1e-300)


class TestSolvationEnergy:
    def test_uniform_reaction_field(self):
        # Constant u means E = kBT/2 * u * sum(q).
        grid = Grid((-2.0, -2.0, -2.0), 1.0, (5, 5, 5))
        field = Field(grid, np.full((5, 5, 5), -3.0))
        atoms = AtomSet(
            [Atom((0.0, 0.0, 0.0), 1.0, 1.0), Atom((1.0, 0.5, -0.5), 0.5, 1.0)]
        )
        expect = 0.5 * KBT_KCAL * (-3.0) * 1.5
        assert solvation_energy(field, atoms) == pytest.approx(expect, rel=1e-13)
        # The stencil is keyword-only: a PhysicalParams passed where the
        # signature once took it fails, and is not read as a stencil.
        with pytest.raises(TypeError):
            solvation_energy(field, atoms, PhysicalParams())

    def test_interpolates_at_centers(self):
        grid = Grid((-2.0, -2.0, -2.0), 1.0, (5, 5, 5))
        nodes = grid.nodes()
        vals = 2.0 * nodes[..., 0] - nodes[..., 1] + 0.5 * nodes[..., 2] + 1.0
        field = Field(grid, vals)
        atoms = AtomSet([Atom((0.3, -0.2, 0.7), 2.0, 1.0)])
        u_at = 2.0 * 0.3 + 0.2 + 0.5 * 0.7 + 1.0
        expect = 0.5 * KBT_KCAL * 2.0 * u_at
        assert solvation_energy(field, atoms) == pytest.approx(expect, rel=1e-12)
