"""Extension of Section V-C: closed-loop reset-value adaptation.

The paper picks R offline from two measured relationships.  The
:class:`~repro.core.adaptive.OverheadBudgetController` automates it: run
epochs, observe sample counts, recompute R — converging onto the
overhead budget within two epochs and re-converging when the workload's
retirement rate changes (a phase change that would silently invalidate
an offline choice).
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_table
from repro.core.adaptive import OverheadBudgetController
from repro.machine.events import HWEvent
from repro.machine.machine import Machine
from repro.machine.pebs import PEBSConfig
from repro.runtime.scheduler import Scheduler
from repro.workloads.spec import SpecKernel

BUDGET = 0.05
EPOCH_CYCLES = 2_000_000


def epoch(kernel_name: str, reset: int):
    kernel = SpecKernel(kernel_name, duration_cycles=EPOCH_CYCLES)
    machine = Machine(n_cores=1)
    unit = machine.attach_pebs(0, PEBSConfig(HWEvent.UOPS_RETIRED_ALL, reset))
    Scheduler(machine, kernel.threads()).run()
    return unit.sample_count, machine.core(0).clock


def baseline(kernel_name: str) -> int:
    machine = Machine(n_cores=1)
    Scheduler(machine, SpecKernel(kernel_name, duration_cycles=EPOCH_CYCLES).threads()).run()
    return machine.core(0).clock


@pytest.fixture(scope="module")
def trajectory():
    c = OverheadBudgetController(BUDGET, initial_reset_value=500)
    bases = {name: baseline(name) for name in ("bzip2", "gcc")}
    rows = []
    # Phase 1: bzip2-like phase (high retirement rate); phase 2: gcc-like.
    for phase, name in (("bzip2", "bzip2"), ("bzip2", "bzip2"), ("bzip2", "bzip2"),
                        ("gcc", "gcc"), ("gcc", "gcc"), ("gcc", "gcc")):
        r = c.reset_value
        samples, cycles = epoch(name, r)
        overhead = (cycles - bases[name]) / bases[name]
        rows.append((phase, r, samples, overhead))
        c.observe_epoch(samples, cycles)
    return rows, c


def test_ext_adaptive_reset_value(trajectory, report, benchmark):
    rows, controller = trajectory
    table = [
        [phase, str(r), str(n), f"{100 * oh:.1f}%"]
        for phase, r, n, oh in rows
    ]
    text = format_table(
        ["workload phase", "reset value used", "samples", "measured overhead"],
        table,
        title=(
            f"Extension of Section V-C: closed-loop R adaptation to a "
            f"{100 * BUDGET:.0f}% overhead budget across a workload phase change"
        ),
    )
    report("ext_adaptive_reset", text)

    # First epoch (R=500) massively overshoots the budget...
    assert rows[0][3] > 3 * BUDGET
    # ... but the controller converges within the phase...
    assert rows[2][3] == pytest.approx(BUDGET, rel=0.25)
    # ... and re-converges after the phase change to a lower-rate kernel.
    assert rows[5][3] == pytest.approx(BUDGET, rel=0.3)
    # The phase change moved R (gcc retires fewer uops/cycle -> smaller R
    # sustains the same overhead budget).
    assert rows[5][1] < rows[2][1]
    assert controller.converged

    benchmark.pedantic(lambda: epoch("bzip2", 20_000), rounds=2, iterations=1)
