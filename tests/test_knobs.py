"""The ``REPRO_*`` knob registry: defaults, spellings, loud failures.

Every table here is the contract for one kind of knob, so adding a knob
means adding a row, not a test.
"""

import pathlib
import pickle
import re

import pytest

from repro.runtime import knobs
from repro.runtime.knobs import KNOBS, KnobError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Each knob's default before the registry existed; a valid setting
#: (or none) must keep producing exactly these values.
PARENT_DEFAULTS = {
    "REPRO_SEED": 12345,
    "REPRO_JOBS": 1,
    "REPRO_CACHE": True,
    "REPRO_CACHE_DIR": ".repro_cache",
    "REPRO_VERIFY": True,
    "REPRO_DEPS": "on",
    "REPRO_TELEMETRY": False,
    "REPRO_AUTOTUNE": False,
    "REPRO_AUTOTUNE_BUDGET": 16,
    "REPRO_LLM_KV_BUDGET": 1024,
    "REPRO_LLM_MAX_SLOTS": 8,
    "REPRO_MONITOR": None,
    "REPRO_MONITOR_INTERVAL": 0.1,
    "REPRO_MONITOR_WINDOW": 10,
    "REPRO_MONITOR_SLO_TARGET": 0.999,
    "REPRO_AUTOSCALE": None,
    "REPRO_AUTOSCALE_INTERVAL": 0.25,
    "REPRO_AUTOSCALE_MIN_CELLS": 1,
    "REPRO_AUTOSCALE_MAX_CELLS": 0,
    "REPRO_AUTOSCALE_COOLDOWN": 1.0,
    "REPRO_AUTOSCALE_QUEUE_HIGH": 4.0,
    "REPRO_AUTOSCALE_QUEUE_LOW": 0.5,
    "REPRO_AUTOSCALE_PRICE": 2.5,
}

#: (knob, value, the fragment of "expected ..." the error must carry).
BAD_VALUES = [
    # Values that used to fall back to a default without a signal.
    # (``REPRO_MONITOR=yes``, once ignored, is now a valid spelling:
    # see BOOL_SPELLINGS.)
    ("REPRO_DEPS", "stirct", "one of off, on, strict"),
    ("REPRO_SEED", "12x", "an integer"),
    ("REPRO_AUTOSCALE_INTERVAL", "1O", "a number"),
    ("REPRO_JOBS", "two", "an integer >= 1"),
    ("REPRO_LLM_MAX_SLOTS", "-3", "an integer >= 1"),
    ("REPRO_MONITOR_SLO_TARGET", "abc", "a number"),
    # One per kind.
    ("REPRO_CACHE", "maybe", "1/on/true/yes or 0/off/false/no"),
    ("REPRO_VERIFY", "2", "1/on/true/yes or 0/off/false/no"),
    ("REPRO_MONITOR", "enabled", "1/on/true/yes or 0/off/false/no"),
    ("REPRO_AUTOSCALE", "-1", "1/on/true/yes or 0/off/false/no"),
    ("REPRO_AUTOTUNE_BUDGET", "1.5", "an integer >= 1"),
    ("REPRO_JOBS", "0", "an integer >= 1"),
    ("REPRO_AUTOSCALE_MAX_CELLS", "-1", "an integer >= 0"),
    ("REPRO_MONITOR_WINDOW", "ten", "an integer >= 1"),
    ("REPRO_AUTOSCALE_PRICE", "$2", "a number"),
]

#: (knob, value, parsed) for accepted spellings beyond the default.
GOOD_VALUES = [
    ("REPRO_SEED", "-7", -7),
    ("REPRO_SEED", " 42 ", 42),
    ("REPRO_JOBS", "4", 4),
    ("REPRO_AUTOSCALE_MAX_CELLS", "0", 0),
    ("REPRO_MONITOR_INTERVAL", "0.25", 0.25),
    ("REPRO_AUTOSCALE_QUEUE_HIGH", "8", 8.0),
    ("REPRO_CACHE_DIR", "out/cache dir", "out/cache dir"),
    ("REPRO_DEPS", "off", "off"),
    ("REPRO_DEPS", "STRICT", "strict"),
    ("REPRO_DEPS", "0", "off"),
    ("REPRO_DEPS", "no", "off"),
    ("REPRO_DEPS", "1", "on"),
    ("REPRO_DEPS", "yes", "on"),
]

BOOL_SPELLINGS = [("1", True), ("on", True), ("true", True), ("yes", True),
                  ("ON", True), ("Yes", True), ("0", False), ("off", False),
                  ("false", False), ("no", False), ("OFF", False),
                  (" no ", False)]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)


def test_registry_lists_exactly_the_known_knobs():
    assert list(KNOBS) == list(PARENT_DEFAULTS)
    assert len(KNOBS) == 23


@pytest.mark.parametrize("name", sorted(PARENT_DEFAULTS))
def test_default_is_pinned(name):
    value = knobs.get(name)
    assert value == PARENT_DEFAULTS[name]
    assert type(value) is type(PARENT_DEFAULTS[name])
    assert KNOBS[name].default == value


@pytest.mark.parametrize("name", sorted(PARENT_DEFAULTS))
@pytest.mark.parametrize("empty", ["", "   "])
def test_empty_means_unset(monkeypatch, name, empty):
    monkeypatch.setenv(name, empty)
    assert knobs.get(name) == PARENT_DEFAULTS[name]


@pytest.mark.parametrize("name,value,expected", BAD_VALUES)
def test_bad_value_raises_naming_the_knob(monkeypatch, name, value,
                                          expected):
    monkeypatch.setenv(name, value)
    with pytest.raises(KnobError) as info:
        knobs.get(name)
    message = str(info.value)
    assert message.startswith(f"{name}={value!r}: expected ")
    assert expected in message
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("name,value,parsed", GOOD_VALUES)
def test_good_value_parses(monkeypatch, name, value, parsed):
    monkeypatch.setenv(name, value)
    assert knobs.get(name) == parsed


@pytest.mark.parametrize("name", [n for n, k in KNOBS.items()
                                  if k.kind in ("bool", "switch")])
@pytest.mark.parametrize("value,parsed", BOOL_SPELLINGS)
def test_every_bool_accepts_the_shared_spellings(monkeypatch, name, value,
                                                 parsed):
    monkeypatch.setenv(name, value)
    assert knobs.get(name) is parsed


@pytest.mark.parametrize("name", ["REPRO_MONITOR", "REPRO_AUTOSCALE"])
@pytest.mark.parametrize("env,flag,result", [
    (None, False, False),
    (None, True, True),
    ("", True, True),
    ("1", False, True),
    ("on", True, True),
    ("0", False, False),
    ("off", True, False),      # the kill switch beats the flag
])
def test_switch_with_and_without_the_flag(monkeypatch, name, env, flag,
                                          result):
    if env is not None:
        monkeypatch.setenv(name, env)
    assert knobs.switch(name, flag) is result


def test_parse_checks_an_explicit_value():
    assert knobs.parse("REPRO_DEPS", "strict") == "strict"
    assert knobs.parse("REPRO_DEPS", "") == "on"
    with pytest.raises(KnobError, match="REPRO_DEPS"):
        knobs.parse("REPRO_DEPS", "loose")


def test_knob_error_survives_pickling():
    # Worker processes (--jobs) hand exceptions back by pickling them.
    err = KnobError("REPRO_JOBS='two': expected an integer >= 1")
    clone = pickle.loads(pickle.dumps(err))
    assert type(clone) is KnobError and str(clone) == str(err)


def test_config_defaults_match_the_registry():
    from repro.serving import AutoscaleConfig, MonitorConfig
    assert AutoscaleConfig.from_env() == AutoscaleConfig()
    assert MonitorConfig.from_env() == MonitorConfig()


def test_config_from_env_fails_loudly(monkeypatch):
    from repro.serving import AutoscaleConfig, MonitorConfig
    monkeypatch.setenv("REPRO_AUTOSCALE_INTERVAL", "1O")
    with pytest.raises(KnobError, match="REPRO_AUTOSCALE_INTERVAL"):
        AutoscaleConfig.from_env()
    monkeypatch.setenv("REPRO_MONITOR_SLO_TARGET", "abc")
    with pytest.raises(KnobError, match="REPRO_MONITOR_SLO_TARGET"):
        MonitorConfig.from_env()


def test_only_the_registry_reads_the_environment():
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "knobs.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\benviron\b|getenv", line) and not re.search(
                    r"os\.environ\[[^]]+\]\s*=", line):
                reads.append(f"{path.relative_to(SRC)}:{number}: {line}")
    assert not reads, "\n".join(reads)


def test_every_knob_named_in_the_source_is_registered():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"[\"'](REPRO_[A-Z_]+)[\"']",
                                path.read_text()))
    assert names and names <= set(KNOBS), names - set(KNOBS)
