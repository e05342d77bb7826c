"""The sweep commands' declarations agree with the kinds they run.

Each command of ``repro.cli.SWEEPS`` names the ``sim_params`` keys its
flags set; a key its kind's runner does not read would be refused at
run time (``repro.experiments.kinds.task_params``).  These tests check
the declarations against the registry; nothing checks them at import.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.experiments.kinds import KINDS, task_params


def _kind(sweep: cli.Sweep) -> str:
    """The kind a command runs: its fixed one, or its ``--kind`` default."""
    if "kind" in sweep.fixed:
        return sweep.fixed["kind"]
    return next(flag.default for flag in sweep.flags if flag.sets == "kind")


def _sim_keys(sweep: cli.Sweep) -> set[str]:
    """Every ``sim_params`` key a flag or the spec-name template names."""
    flags = {
        flag.sets
        for flag in cli._all_flags(sweep)
        if flag.sets not in (None, "ports", *cli._SPEC_FIELDS)
    }
    return flags | set(cli._fields(sweep.name))


@pytest.mark.parametrize("command", cli.SWEEPS)
def test_every_sim_params_key_is_read_by_the_kind(command):
    sweep = cli.SWEEPS[command]
    assert _sim_keys(sweep) <= set(KINDS[_kind(sweep)].params)


@pytest.mark.parametrize("command", cli.SWEEPS)
def test_every_each_flag_orders_by_the_spec_name(command):
    # The name template orders the variants, so an "each" flag it does
    # not name would expand to nothing.
    sweep = cli.SWEEPS[command]
    each = {flag.sets for flag in sweep.flags if flag.form == "each"}
    assert each <= set(cli._fields(sweep.name))


@pytest.mark.parametrize("command", cli.SWEEPS)
def test_default_specs_pass_the_kind_check(command):
    args = cli.build_parser().parse_args([command])
    specs = cli._sweep_specs(cli.SWEEPS[command], args)
    assert specs
    for spec in specs:
        assert spec.kind == _kind(cli.SWEEPS[command])
        for task in spec.tasks():
            task_params(task)

