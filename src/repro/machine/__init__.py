"""Simulated multicore machine substrate.

This package stands in for the hardware the paper measures on: Skylake-like
cores with a cycle-accurate-ish clock, a cache hierarchy, programmable
performance counters, PEBS (hardware sampling of timestamp + instruction
pointer with a ~250 ns per-sample assist cost), and a perf-style
software sampler driven by counter-overflow interrupts.

The substrate executes :class:`~repro.machine.block.Block` quanta emitted by
application code and charges cycles, counts hardware events, and produces
samples exactly where a real PMU would.

Import from the defining submodule (``from repro.machine.machine import
Machine``), or use the :mod:`repro.api` facade, which assembles the
machine for you.
"""
