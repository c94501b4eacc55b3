"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

from math import comb

import gen
import pytest
import run


@pytest.mark.parametrize("label", list(run.COMMANDS))
def test_inputs_are_deterministic_per_seed(label):
    make = run.COMMANDS[label]["make"]
    assert gen.sha256(make(3)) == gen.sha256(make(3))
    assert gen.sha256(make(3)) != gen.sha256(make(4))


def test_iqr_inputs_have_distinct_outcomes():
    text = run.COMMANDS["iqr-n5k-b999"]["make"](0)
    assert gen.distinct_y(text) == run.COMMANDS["iqr-n5k-b999"]["shape"]["n"]


def _traced(name, seed):
    return run.run_workload(name, seed, 0.0, True, run._src_root())


def test_traced_reports_match_untraced_cli():
    # `failed` counts every in-process report, traced or not, whose bytes
    # differ from the CLI subprocess report; ok also needs counts to repeat.
    metrics, _, attempted, failed, ok = _traced("binary-infer-generalized", 0)
    assert attempted >= 6 and failed == 0 and ok
    assert metrics["inference.estimate_theta.calls"] == 6
    assert metrics["inference.critical_value.calls"] == 3
    assert metrics["generalized.att_bounds.calls"] == 2
    assert metrics["probability.vertices.facet_triples"] == comb(4 + 8 * 20, 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_iqr_grid_runs_for_every_seed(seed):
    metrics, _, _, failed, ok = _traced("iqr-n5k-b999", seed)
    assert failed == 0 and ok
    assert metrics["inference.row_inverse.calls"] > 0
