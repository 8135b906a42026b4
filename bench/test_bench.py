"""Tests of the benchmark itself:

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from run import ROOT, invoke, selftest
from tracing import Tracer, invariant_problems
from workloads import WORKLOADS

sys.path.insert(0, str(ROOT / "src"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_output_passes_and_corrupted_output_fails(name, tmp_path):
    clean, caught = selftest(WORKLOADS[name], tmp_path)
    assert clean
    assert caught


def test_unnormalized_mode_populations_are_a_failure():
    from darkfloquet import quasi_energy_sweep

    sweep = quasi_energy_sweep(3, 1.0, 10.0, [0.5, 1.0])
    assert invariant_problems(sweep) == []
    bad = dataclasses.replace(sweep, avg_populations=1.01 * sweep.avg_populations)
    assert invariant_problems(bad)


def test_self_time_subtracts_children_and_readings():
    tracer = Tracer(timed=True)
    tracer.spans = [["harness.run", "harness", 0.0, 10.0, -1, 0.5],
                    ["evolve.propagate", "evolve", 2.0, 5.0, 0, 0.0],
                    ["linalg.hermitian_eigen", "linalg", 3.0, 4.0, 1, 0.0]]
    self_s = tracer.layer_summary()["self_s"]
    assert self_s["harness"] == pytest.approx(6.5)
    assert self_s["evolve"] == pytest.approx(2.0)
    assert self_s["linalg"] == pytest.approx(1.0)


def test_wrappers_cover_names_bound_in_other_modules(tmp_path):
    rec = invoke(tmp_path / "inv", "trace",
                 ["sweep-min-pop", "--n", "3", "--ratio-grid", "0:1:2", "--out", "m.csv"])
    assert rec["returncode"] == 0
    layers = rec["layers"]
    # harness calls these through its own bindings of the names
    assert layers["calls"]["evolve.propagator_samples"] == 2
    assert layers["calls"]["linalg.unitary_eigen"] == 2
    assert layers["calls"]["harness.min_p1_measured"] == 2
    assert layers["calls"]["cli.main"] == 1
    assert layers["counters"]["evolve.rk4_steps"] == 2 * 2000
    assert abs(sum(layers["self_s"].values()) / rec["wall_s"] - 1.0) < 0.05
