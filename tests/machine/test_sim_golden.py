"""Simulator-output golden: what the machine produces, pinned bit for bit.

``tests/data/sim_golden.json`` holds one sha256 per scenario of
``tests/data/make_sim_golden.py`` (core clocks and counters, every
sampling unit's finalized columns, stall/drain/shed accounting).  A
change to the per-block path that alters one simulated bit fails here.
Regenerate only when the simulated output is *meant* to change.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
GENERATOR = ROOT / "tests" / "data" / "make_sim_golden.py"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_sim_golden", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_generator()
EXPECTED = json.loads(gen.GOLDEN.read_text())


def test_golden_covers_every_scenario():
    assert set(EXPECTED) == set(gen.SCENARIOS)


@pytest.mark.parametrize("name", sorted(gen.SCENARIOS))
def test_scenario_digest_matches_golden(name):
    assert gen.SCENARIOS[name]() == EXPECTED[name]


def _digests_with_hash_seed(seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(GENERATOR), "--print"],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout)


def test_digests_independent_of_hash_seed():
    """Event lookup must not depend on str/enum hash randomisation."""
    assert _digests_with_hash_seed("0") == EXPECTED
    assert _digests_with_hash_seed("4242") == EXPECTED
