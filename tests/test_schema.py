"""The shared shape checker and the six report validators built on it.

Two properties hold for every validator: any JSON value gets back a list
of strings and never an exception, and every way of breaking a real
report that its spec rules out (a required key deleted, a typed value
replaced by null, ``true`` or a value of the wrong type) is reported.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler.autotune import AUTOTUNE_SPEC, validate_autotune_report
from repro.faults.chaos import CHAOS_SPEC, validate_chaos_report
from repro.llm.sweep import LLM_SPEC, validate_llm_report
from repro.schema import check, passed
from repro.serving.monitor import MONITOR_SPEC, validate_monitor_report
from repro.serving.scale import SCALE_SPEC, validate_fleet_scale_report
from repro.telemetry.export import TRACE_SPEC, validate_trace

VALIDATORS = {
    "trace": (validate_trace, TRACE_SPEC),
    "chaos": (validate_chaos_report, CHAOS_SPEC),
    "llm": (validate_llm_report, LLM_SPEC),
    "monitor": (validate_monitor_report, MONITOR_SPEC),
    "fleet_scale": (validate_fleet_scale_report, SCALE_SPEC),
    "autotune": (validate_autotune_report, AUTOTUNE_SPEC),
}


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------
def test_bool_is_never_a_number():
    assert check(True, "int") == ["$: expected int, got bool"]
    assert check(False, "number") == ["$: expected number, got bool"]
    assert check(3, "number") == []
    assert check(3.0, "int") == ["$: expected int, got number"]
    assert check(True, "bool") == []


def test_problems_carry_json_paths():
    spec = {"keys": {"rows": {"min": 1, "items": {"keys": {"n": "int"}}},
                     "by": {"values": {"enum": ["a", "b"]}}},
            "optional": {"gap": {"type": "number", "gt": 0}}}
    assert check({"rows": [{"n": 1}], "by": {"x.y": "a"}}, spec) == []
    assert check({"rows": [{"n": 1}, {}, {"n": None}],
                  "by": {"x.y": "c"}, "gap": 0}, spec) == [
        "$.rows[1].n: missing",
        "$.rows[2].n: expected int, got null",
        "$.by['x.y']: 'c' is not one of ['a', 'b']",
        "$.gap: 0 must be greater than 0",
    ]
    assert check({"by": {}, "rows": []}, spec) == [
        "$.rows: length 0 is below the minimum 1"]
    assert check([], spec) == ["$: expected object, got list"]


def test_enum_and_lower_bounds():
    assert check("v2", {"enum": ["v1"]}) == ["$: 'v2' is not one of ['v1']"]
    assert check(-1, {"type": "int", "min": 0}) == [
        "$: -1 is below the minimum 0"]
    assert check("", {"type": "str", "min": 1}) == [
        "$: length 0 is below the minimum 1"]


def test_tuple_fixes_the_length_and_each_item():
    spec = {"tuple": ["number", "str"]}
    assert check([0.5, "a"], spec) == []
    assert check([0.5], spec) == ["$: length 1, expected 2"]
    assert check([0.5, "a", 1], spec) == ["$: length 3, expected 2"]
    assert check(["0.5", 1], spec) == ["$[0]: expected number, got str",
                                       "$[1]: expected str, got int"]
    assert check({}, spec) == ["$: expected list, got object"]


def test_passed_gates_on_top_level_keys():
    problems = ["$.a.b: missing", "$.c[0]: expected object, got null",
                "$.d: missing"]
    assert not passed(problems, "a")
    assert not passed(problems, "x", "c")
    assert not passed(problems, "d")
    assert passed(problems, "ab", "x")
    assert passed([], "a")
    assert not passed(["$: expected object, got list"], "a")


# ---------------------------------------------------------------------------
# Any JSON value: a list of strings back, never an exception
# ---------------------------------------------------------------------------
def _vocabulary(spec, out):
    """Every key and enum value a spec names (so random values reach deep)."""
    if isinstance(spec, dict):
        for key in ("keys", "optional"):
            for name, sub in spec.get(key, {}).items():
                out.add(name)
                _vocabulary(sub, out)
        out.update(v for v in spec.get("enum", ()) if isinstance(v, str))
        for key in ("items", "values"):
            if key in spec:
                _vocabulary(spec[key], out)
    return out


VOCABULARY = sorted(set().union(*(_vocabulary(spec, set())
                                  for _, spec in VALIDATORS.values())))
WORDS = st.sampled_from(VOCABULARY) | st.text(max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | WORDS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(WORDS, inner, max_size=8)),
    max_leaves=20)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=JSON)
def test_validators_never_raise(value):
    for validate, _ in VALIDATORS.values():
        problems = validate(value)
        assert isinstance(problems, list)
        assert all(isinstance(p, str) for p in problems)


# ---------------------------------------------------------------------------
# Mutations of real reports are all caught
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def real_reports():
    """One small real payload per report kind."""
    from repro.compiler import autotune_model
    from repro.faults import CrashSpec, FaultPlan, chaos_grid, chaos_report
    from repro.llm import llm_grid, llm_report
    from repro.models import build_model
    from repro.runtime import EvalCache, get_cache, set_cache
    from repro.serving import (AutoscaleConfig, DiurnalTrace, LLMServiceCosts,
                               ModelCost, MonitorConfig, ResiliencePolicy,
                               ScaledFleetSimulator, ServiceCosts, run_cell)
    from repro.telemetry import Telemetry
    from repro.telemetry.export import chrome_trace

    costs = ServiceCosts(costs={"m": ModelCost(0.010, 0.005, True, 1)},
                         amortized_fraction=0.5)
    crashes = FaultPlan(name="crashes",
                        crash=CrashSpec(p_per_device_s=0.5, outage_s=1.0))
    sim = ScaledFleetSimulator(
        costs, devices=8, cells=4, autoscale=AutoscaleConfig(interval_s=0.5),
        fault_plan=crashes, resilience=ResiliencePolicy(),
        monitor_config=MonitorConfig(interval_s=0.5))
    sim.run(DiurnalTrace(["m"], 400.0, 6.0), rate_rps=400.0)

    grid = chaos_grid(plan=crashes, scales=(1.0,), model="m", devices=2,
                      rate_rps=300.0, duration_s=1.0, costs=costs)
    llm_cells = llm_grid(
        costs=LLMServiceCosts(config="hand", prefill_token_s=1.0,
                              decode_step_s=1.0, kv_budget_tokens=400,
                              amortized_fraction=0.5, slo_multiplier=5.0),
        rates=(5.0,), duration_s=1.0, max_slots=4)
    tel = Telemetry(enabled=True)
    with tel.span("work"):
        tel.count("n", 1)
    prev = get_cache()
    set_cache(EvalCache(enabled=False))
    try:
        autotune = autotune_model(build_model("tinynet"), budget=2).as_dict()
    finally:
        set_cache(prev)
    return {
        "trace": chrome_trace([tel.snapshot()]),
        "chaos": chaos_report(
            grid, [run_cell(cell).report for _, cell in grid], crashes, "m"),
        "llm": llm_report([run_cell(cell).report for cell in llm_cells]),
        "monitor": sim.monitor_payload,
        "fleet_scale": sim.payload,
        "autotune": autotune,
    }


def _kind(spec):
    if isinstance(spec, str):
        return spec
    return spec.get("type") or (
        "list" if "items" in spec else
        "object" if {"keys", "optional", "values"} & spec.keys() else "any")


#: A value of the wrong JSON type for each type name.
WRONG = {"int": 1.5, "number": "1", "str": 0, "bool": 0, "list": {},
         "object": [], "any": "not-in-the-enum"}
DELETE = object()


def _slots(value, spec, steps=()):
    """(steps, sub-spec, required) for each key the spec names in ``value``.

    Lists and maps contribute their first entry only.
    """
    if isinstance(spec, str):
        return
    for group, required in (("keys", True), ("optional", False)):
        for key, sub in spec.get(group, {}).items():
            if key in value:
                yield steps + (key,), sub, required
                yield from _slots(value[key], sub, steps + (key,))
    for group in ("items", "values"):
        if group in spec and value:
            first = 0 if group == "items" else next(iter(value))
            yield steps + (first,), spec[group], False
            yield from _slots(value[first], spec[group], steps + (first,))


def _mutations(payload, spec):
    """(label, mutated copy) for each way of breaking ``payload``."""
    for steps, sub, required in _slots(payload, spec):
        kind = _kind(sub)
        typed = kind != "any" or (isinstance(sub, dict) and "enum" in sub)
        replacements = [v for v in (None, True, WRONG[kind]) if typed
                        and not (kind == "bool" and v is True)]
        if required:
            replacements.append(DELETE)
        for replacement in replacements:
            mutated = copy.deepcopy(payload)
            holder = mutated
            for step in steps[:-1]:
                holder = holder[step]
            if replacement is DELETE:
                del holder[steps[-1]]
            else:
                holder[steps[-1]] = replacement
            label = "del" if replacement is DELETE else repr(replacement)
            yield f"{steps} <- {label}", mutated


@pytest.mark.parametrize("kind", sorted(VALIDATORS))
def test_every_mutation_of_a_real_report_is_caught(kind, real_reports):
    validate, spec = VALIDATORS[kind]
    payload = real_reports[kind]
    assert validate(payload) == []
    missed = []
    count = 0
    for label, mutated in _mutations(payload, spec):
        count += 1
        if not validate(mutated):
            missed.append(label)
    assert count > 10
    assert missed == []
