"""Pinned final energies and step counts of short runs.

The values were recorded at commit b0099f5.  A kernel change that keeps the
arithmetic moves none of them; one that reorders it may move the energies
by rounding, within ROADMAP item 3's bound of 1e-12 relative, and must
not change a step count.
"""

from dataclasses import replace

import pytest

from gfmpbe import (
    Atom,
    AtomSet,
    ControllerConfig,
    PhysicalParams,
    RunConfig,
    kirkwood_config,
    run,
)

REL = 1e-12

DESK_SOLUTE = AtomSet(
    [
        Atom((0.0, 0.0, 0.0), 1.0, 2.0),
        Atom((2.8, 0.0, 0.0), -0.7, 1.7),
        Atom((0.0, 2.9, 0.4), 0.5, 1.8),
        Atom((-2.7, 0.3, -0.6), -0.8, 1.6),
    ]
)
"""The four-atom SES solute of acceptance criteria 5 and 6."""


def _kirkwood_17(scheme: str) -> RunConfig:
    """Kirkwood sphere on 17^3 (h = 0.5, box +-4), LPB start, 20 steps of
    dt = 0.05."""
    ctrl = ControllerConfig(
        kind="Constant", dt0=0.05, t_end=1.0, t_min_stop=100.0, tol=1e-15
    )
    return kirkwood_config(h=0.5, box_half=4.0, scheme=scheme, controller=ctrl)


def _desk_nipid() -> RunConfig:
    """Criterion 6's desk solute at h = 0.5 under NonincreasingPID, ADI."""
    return RunConfig(
        atoms=DESK_SOLUTE,
        h=0.5,
        controller=ControllerConfig.for_kind("NonincreasingPID"),
        params=PhysicalParams(eps_in=1.0, eps_out=80.0, ionic_strength=0.15),
    )


@pytest.mark.parametrize(
    "cfg, energy, steps",
    [
        pytest.param(_kirkwood_17("ADI"), -82.214057686909, 20, id="kirkwood17-ADI"),
        pytest.param(_kirkwood_17("LOD"), -82.14377949309954, 20, id="kirkwood17-LOD"),
        pytest.param(_desk_nipid(), -63.33414641314284, 33, id="desk-nipid-ADI"),
        pytest.param(
            replace(_desk_nipid(), scheme="LOD"), -63.82898820956847, 50,
            id="desk-nipid-LOD",
        ),
    ],
)
def test_pinned_energy_and_steps(cfg, energy, steps):
    trace = run(cfg)
    assert trace.steps == steps
    assert abs(trace.final_energy - energy) <= REL * abs(energy)
