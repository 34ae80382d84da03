"""Metric names and units: the rules, and BENCHMARK.json against the code."""

import json
from pathlib import Path

import pytest

import report

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("name", ["configs_per_s", "grid.make_shape.calls",
                                  "sim.obd-dle-collect.busy_s", "9lives", "a_b.c-d"])
def test_valid_names(name):
    assert report.valid_name(name)


@pytest.mark.parametrize("name", ["", "sim.obd+dle+collect.calls", ".hidden",
                                  "-lead", "has space", "x" * 65, "per/s", "µs"])
def test_invalid_names(name):
    assert not report.valid_name(name)


def assert_valid_and_unique(names):
    names = list(names)
    assert [name for name in names if not report.valid_name(name)] == []
    assert len(set(names)) == len(names)


def test_every_reported_name_is_valid_and_unique():
    assert_valid_and_unique(name for name, _ in report.END_TO_END + report.PER_LAYER)
    assert all(report.valid_unit(unit) for _, unit in report.END_TO_END + report.PER_LAYER)


@pytest.mark.parametrize("unit", ["ms", "s", "1/s", "count", "configs/s", "%", "MiB"])
def test_valid_units(unit):
    assert report.valid_unit(unit)


def test_sim_span_names_spell_plus_as_minus():
    from tracing import sim_span_name

    assert sim_span_name("obd+dle+collect") == "sim.obd-dle-collect"


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(report.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert_valid_and_unique(m["name"] for m in spec["end_to_end"] + spec["per_layer"])
