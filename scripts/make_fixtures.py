#!/usr/bin/env python3
"""Regenerate the shipped example documents in canonical form."""

from __future__ import annotations

from pathlib import Path

from benchlattice.assignment import CapacityBudget
from benchlattice.registry import (
    LoadedSuite,
    bench_from_raw,
    save_budget,
    save_registry,
    save_suite,
)
from benchlattice.taxonomy import Stage
from benchlattice.testcase import (
    EvaluationCriterion,
    ObjectDescriptor,
    ScenarioLayers,
    TestCase,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "benchlattice" / "data"


def element(eid, name, dimension, stage, rate, tf, setup=0.0):
    return {
        "id": eid,
        "display_name": name,
        "dimension": dimension,
        "stage": stage,
        "validated_for": ["safety-validation"],
        "cost_rate": rate,
        "time_factor": tf,
        "setup_cost": setup,
    }


def sil_bench():
    sim = lambda eid, name, dim, rate=5.0, tf=0.25: element(eid, name, dim, "simulated", rate, tf)
    return bench_from_raw(
        {
            "id": "sil",
            "display_name": "Software-in-the-loop test bench",
            "substantiations": {"environment-sensor-system": ["Radar", "Camera"]},
            "elements": [
                sim("control-software", "Control function under development", "test-object"),
                sim("driver-model", "Driver simulation model", "driver-user-behavior"),
                sim("vd-single-track", "Single-track simulation model", "vehicle-dynamics", rate=20.0),
                sim("vd-double-track", "Double-track simulation model", "vehicle-dynamics", rate=30.0, tf=0.5),
                sim("radar-model", "Radar simulation model", "radar"),
                sim("camera-model", "Camera simulation model", "camera"),
                sim("scenery-model", "Scenery simulation model", "scenery"),
                sim("traffic-model", "Traffic object simulation model", "movable-objects"),
                sim("weather-model", "Rain and fog simulation model", "environmental-conditions"),
                sim("localization-model", "Localization simulation model", "localization-sensor-system"),
                sim("v2x-model", "V2X message simulation model", "v2x-communication"),
                sim("rest-bus-model", "Rest-bus simulation model", "residual-vehicle"),
            ],
        }
    )


def test_vehicle_bench():
    real = lambda eid, name, dim: element(eid, name, dim, "real", 72.0, 1.0, setup=10.0)
    return bench_from_raw(
        {
            "id": "test-vehicle",
            "display_name": "Proving ground test vehicle",
            "elements": [
                real("series-ecu", "Series control unit", "test-object"),
                real("test-driver", "Trained test driver", "driver-user-behavior"),
                real("series-vehicle-dynamics", "Series vehicle dynamics", "vehicle-dynamics"),
                real("series-sensors", "Series environment sensor set", "environment-sensor-system"),
                real("proving-ground", "Proving ground scenery", "scenery"),
                real("target-vehicle", "Series target vehicle", "movable-objects"),
                real("ambient-weather", "Ambient weather", "environmental-conditions"),
                real("series-gnss", "Series localization sensors", "localization-sensor-system"),
                real("v2x-partner-vehicle", "V2X partner vehicle", "v2x-communication"),
                real("series-platform", "Series vehicle platform", "residual-vehicle"),
            ],
        }
    )


def demo_suite():
    cases = (
        TestCase(
            id="cut-in-rain",
            scenario=ScenarioLayers(
                road_level="three-lane motorway, gentle right bend",
                traffic_infrastructure="overhead gantries with variable speed signs",
                temporary_manipulation="",
                movable_objects=(ObjectDescriptor(type="passenger-car", count=2),),
                environment_conditions=("rain",),
                nominal_duration=360.0,
            ),
            evaluation_criteria=(
                EvaluationCriterion(name="min-ttc", threshold=">= 1.0 s"),
            ),
            purpose="safety-validation",
        ),
        TestCase(
            id="sensor-stimulus-check",
            scenario=ScenarioLayers(
                road_level="straight rural road",
                traffic_infrastructure="",
                temporary_manipulation="",
                movable_objects=(ObjectDescriptor(type="passenger-car", count=1),),
                environment_conditions=(),
                nominal_duration=120.0,
            ),
            evaluation_criteria=(
                EvaluationCriterion(name="object-detection-rate", threshold=">= 0.99"),
            ),
            purpose="safety-validation",
        ),
        TestCase(
            id="v2x-handover",
            scenario=ScenarioLayers(
                road_level="urban intersection with traffic lights",
                traffic_infrastructure="signalised intersection",
                temporary_manipulation="",
                movable_objects=(),
                environment_conditions=(),
                nominal_duration=240.0,
            ),
            evaluation_criteria=(
                EvaluationCriterion(name="v2x-communication latency", threshold="<= 100 ms"),
            ),
            purpose="safety-validation",
        ),
    )
    overrides = {
        "sensor-stimulus-check": {"environment-sensor-system": frozenset({Stage.REAL})}
    }
    return LoadedSuite(test_cases=cases, overrides=overrides)


def main():
    sil = sil_bench()
    vehicle = test_vehicle_bench()
    save_registry([sil], DATA_DIR / "sil_bench.json")
    save_registry([vehicle], DATA_DIR / "test_vehicle_bench.json")
    save_registry([sil, vehicle], DATA_DIR / "fleet_bench.json")
    save_suite(demo_suite(), DATA_DIR / "demo_suite.suite.json")
    save_budget(CapacityBudget({"sil": 100.0}), DATA_DIR / "demo.budget.json")
    for name in sorted(p.name for p in DATA_DIR.glob("*.json")):
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
