import contextlib
import csv
import dataclasses
import io
import json
import logging
import math
import os
import pathlib
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zenodecay import cli
from zenodecay.cli import (
    load_config,
    main,
    parse_config,
    render_rows,
    run_sweep,
    sweep_columns,
)
from zenodecay.errors import ConfigError
from zenodecay.scenarios import (
    DynamicControls,
    RabiDriveScenario,
    ScatteringScenario,
    UnstableLevelScenario,
    scenario_amplitude,
)
from zenodecay.spectral import FlatDensity, PowerLawDensity, TabulatedDensity

CUBIC_Y = {"kind": "power_law", "amplitude": 1.0, "exponent": 3.0,
           "support": [0.0, 2.0]}
FLAT_Y = {"kind": "flat", "level": 0.05, "support": [-5.0, 5.0]}


def rabi_config(**overrides):
    cfg = {
        "schema_version": 1,
        "scenario": {
            "kind": "rabi",
            "m_y": dict(CUBIC_Y),
            "omega_f": 1.0,
            "omega": 0.2,
            "omega_21": 4.0,
        },
        "sweep": {"path": "rabi.omega", "values": [0.1, 0.2, 0.4]},
        "routes": "analytic",
    }
    cfg.update(overrides)
    return cfg


# a level with a line shift but no width: no kernel and no trace model
SHIFT_ONLY = {"kind": "unstable", "m_y": dict(FLAT_Y), "omega_f": 0.0,
              "lambda_r": 0.0, "lambda_i": 0.2}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_minimal_config(self):
        config = parse_config(rabi_config())
        assert config.routes == "analytic"
        assert config.sweep_path == "rabi.omega"
        np.testing.assert_allclose(config.sweep_values, [0.1, 0.2, 0.4])
        assert config.out_format == "csv"
        assert config.out_path is None

    def test_top_level_validation(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2])
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(rabi_config(extra=1))
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"scenario": {}})
        with pytest.raises(ConfigError, match="unsupported version"):
            parse_config(rabi_config(schema_version=2))
        with pytest.raises(ConfigError, match="got bool"):
            parse_config(rabi_config(schema_version=True))

    def test_routes_validation(self):
        with pytest.raises(ConfigError, match="routes"):
            parse_config(rabi_config(routes="fastest"))

    def test_scenario_validation(self):
        cfg = rabi_config()
        cfg["scenario"]["kind"] = "mystery"
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            parse_config(cfg)
        cfg = rabi_config()
        del cfg["scenario"]["omega_21"]
        with pytest.raises(ConfigError, match="omega_21"):
            parse_config(cfg)
        cfg = rabi_config()
        cfg["scenario"]["m_y"] = {"kind": "flat", "level": 1.0,
                                  "support": [2.0, 2.0]}
        with pytest.raises(ConfigError, match="m_y"):
            parse_config(cfg)

    def test_sweep_path_validation(self):
        cfg = rabi_config()
        cfg["sweep"]["path"] = "rabi.detuning"
        with pytest.raises(ConfigError, match="known paths"):
            parse_config(cfg)
        cfg = rabi_config()
        cfg["sweep"]["path"] = "unstable.lambda_r"
        with pytest.raises(ConfigError, match="applies to"):
            parse_config(cfg)
        with pytest.raises(ConfigError, match="missing required field"):
            parse_config(rabi_config(sweep=None))

    def test_sweep_form_compatibility(self):
        cfg = rabi_config(
            scenario={
                "kind": "scattering",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "m_z": dict(FLAT_Y),
                "z_resonance": 0.0,
            },
            sweep={"path": "scattering.rate", "values": [0.1, 0.2]},
        )
        with pytest.raises(ConfigError, match="cannot be swept"):
            parse_config(cfg)

    def test_sweep_values_validation(self):
        # 10**400 is a JSON integer beyond the double range
        for bad in ([], [0.2, 0.1], [0.1, 0.1], [0.1, "x"], [0.1, True], [0.1, 10**400]):
            cfg = rabi_config()
            cfg["sweep"]["values"] = bad
            with pytest.raises(ConfigError):
                parse_config(cfg)
        for bad in ([0.1, "x"], [0.1, True], [0.1, 10**400]):
            cfg = rabi_config()
            cfg["sweep"]["values"] = bad
            with pytest.raises(ConfigError, match="entry 1 must be a finite number") as info:
                parse_config(cfg)
            assert info.value.path == "$.sweep.values"

    def test_pair_takes_two_finite_numbers(self):
        for bad, message in (([1.0], "got 1 entries"), ([0.0, 1.0, 2.0], "got 3 entries"),
                             ([0.0, math.inf], "entry 1 must be a finite number"),
                             ("[0, 1]", "expected list")):
            with pytest.raises(ConfigError, match=message) as info:
                parse_config(rabi_config(dynamic={"fit_window": bad}))
            assert info.value.path == "$.dynamic.fit_window"

    def test_sweep_range_forms(self):
        cfg = rabi_config()
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.1, "stop": 0.4,
                        "count": 4, "spacing": "log"}
        config = parse_config(cfg)
        np.testing.assert_allclose(config.sweep_values,
                                   np.geomspace(0.1, 0.4, 4))
        cfg["sweep"]["start"] = -1.0
        with pytest.raises(ConfigError, match="log spacing"):
            parse_config(cfg)
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.4, "stop": 0.1,
                        "count": 4}
        with pytest.raises(ConfigError, match="below stop"):
            parse_config(cfg)
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.1, "stop": 0.4,
                        "count": 0}
        with pytest.raises(ConfigError, match="at least 1"):
            parse_config(cfg)
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.1, "stop": 0.4,
                        "count": 4, "spacing": "cubic"}
        with pytest.raises(ConfigError, match="spacing"):
            parse_config(cfg)

    def test_grids_wider_than_the_double_range_load(self):
        # increasing grids are checked without a difference that overflows
        wide = [-1.7e308, 1.7e308]
        cfg = rabi_config(sweep={"path": "omega_f", "values": wide})
        cfg["scenario"]["m_y"] = {"kind": "tabulated", "omega": wide, "values": [1, 1]}
        config = parse_config(cfg)
        assert np.array_equal(config.scenario.m_y.omega, wide)
        assert np.array_equal(config.sweep_values, wide)

    def test_dynamic_controls_validation(self):
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config(rabi_config(dynamic=[1]))
        with pytest.raises(ConfigError, match="at least 100"):
            parse_config(rabi_config(dynamic={"n_y": 10}))
        with pytest.raises(ConfigError, match="at least 50"):
            parse_config(rabi_config(dynamic={"n_z": 10}))
        with pytest.raises(ConfigError, match="positive"):
            parse_config(rabi_config(dynamic={"dt": -0.1}))
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(rabi_config(dynamic={"n_modes": 100}))
        with pytest.raises(ConfigError, match="fit_window"):
            parse_config(rabi_config(dynamic={"fit_window": [5.0, 2.0]}))
        config = parse_config(rabi_config(
            dynamic={"n_y": 200, "fit_window": [2.0, 5.0], "dt": 0.01}
        ))
        assert config.controls.n_y == 200
        assert config.controls.fit_window == (2.0, 5.0)

    def test_eig_cutoff_is_accepted_and_ignored(self, caplog):
        with caplog.at_level(logging.WARNING, logger="zenodecay.cli"):
            config = parse_config(rabi_config(dynamic={"eig_cutoff": 0}))
        assert config.controls == parse_config(rabi_config()).controls
        assert "$.dynamic.eig_cutoff is ignored" in caplog.text
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="zenodecay.cli"):
            parse_config(rabi_config(dynamic={"n_y": 200}))
        assert caplog.text == ""

    def test_eig_cutoff_must_be_int(self):
        for bad in (2048.0, "2048", True):
            with pytest.raises(ConfigError, match="eig_cutoff"):
                parse_config(rabi_config(dynamic={"eig_cutoff": bad}))

    def test_output_validation(self):
        with pytest.raises(ConfigError, match="output"):
            parse_config(rabi_config(output={"format": "xml"}))
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config(rabi_config(output="out.csv"))
        assert parse_config(rabi_config()).out_format == "csv"

    @pytest.mark.parametrize("value", [None, False, 0, [], ""])
    def test_output_that_is_not_an_object_is_rejected(self, value):
        with pytest.raises(ConfigError) as info:
            parse_config(rabi_config(output=value))
        assert info.value.path == "$.output"

    @pytest.mark.parametrize("key", ["omega", "values"])
    def test_tabulated_entry_beyond_double_range_is_rejected(self, key):
        density = {"kind": "tabulated", "omega": [0.0, 1.0], "values": [1.0, 1.0]}
        density[key] = [0.0, 10**400]
        cfg = rabi_config()
        cfg["scenario"]["m_y"] = density
        with pytest.raises(ConfigError, match="entry 1") as info:
            parse_config(cfg)
        assert info.value.path == f"$.scenario.m_y.{key}"
        config = parse_config(rabi_config(
            output={"path": "out.json", "format": "json"}
        ))
        assert config.out_path == "out.json"
        assert config.out_format == "json"


DYNAMIC_KEYS = ("n_y", "n_z", "horizon", "dt", "fit_window")
IGNORED_KEYS = ("eig_cutoff", "sample_stride", "dim_budget")
BIGGEST = int(sys.float_info.max)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.integers(1, BIGGEST)
number = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-BIGGEST, BIGGEST)
window = st.tuples(number, number).filter(lambda p: float(p[0]) < float(p[1]))
# JSON integers can lie beyond the double range: rejected, never a crash
non_finite = st.sampled_from([math.inf, -math.inf, math.nan]) | st.integers(BIGGEST + 1)
valid_dynamic = st.fixed_dictionaries({}, optional={
    "n_y": st.integers(100, 10**6),
    "n_z": st.integers(50, 10**6),
    "horizon": positive,
    "dt": positive,
    "fit_window": window.map(list),
})
not_int = st.one_of(st.booleans(), st.floats(), st.text(max_size=4), st.none(),
                    st.lists(st.integers(), max_size=2))
invalid_field = st.one_of(
    st.tuples(st.text(min_size=1, max_size=12).filter(
        lambda k: k not in DYNAMIC_KEYS + IGNORED_KEYS), st.integers()),
    st.tuples(st.sampled_from(DYNAMIC_KEYS + IGNORED_KEYS), st.booleans()),
    st.tuples(st.sampled_from(("horizon", "dt")),
              st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
              | st.integers(max_value=0)),
    st.tuples(st.just("n_y"), st.integers(max_value=99)),
    st.tuples(st.just("n_z"), st.integers(max_value=49)),
    st.tuples(st.sampled_from(("horizon", "dt")), non_finite),
    st.tuples(st.just("fit_window"), window.map(lambda p: [p[1], p[0]])),
    st.tuples(st.just("fit_window"), st.tuples(number, non_finite).map(list)),
    st.tuples(st.sampled_from(IGNORED_KEYS), not_int),
)


@contextlib.contextmanager
def cli_warnings():
    """The warnings zenodecay.cli logs in the block, kept out of the test report."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("zenodecay.cli")
    saved = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    logger.propagate = False
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.level, logger.propagate = saved


class TestDynamicBlockProperties:
    @given(block=valid_dynamic)
    def test_valid_block_round_trips(self, block):
        with cli_warnings() as records:
            controls = parse_config(rabi_config(dynamic=block)).controls
        expected = {key: block.get(key, getattr(DynamicControls(), key))
                    for key in DYNAMIC_KEYS}
        for key in ("horizon", "dt"):
            if key in block:
                expected[key] = float(block[key])
        if "fit_window" in block:
            expected["fit_window"] = tuple(float(v) for v in block["fit_window"])
        assert controls == DynamicControls(**expected)
        assert records == []

    @given(block=valid_dynamic)
    def test_null_fit_window_is_absent(self, block):
        block = {key: value for key, value in block.items() if key != "fit_window"}
        null = parse_config(rabi_config(dynamic={**block, "fit_window": None})).controls
        assert null == parse_config(rabi_config(dynamic=block)).controls

    @given(block=valid_dynamic, bad=invalid_field)
    def test_invalid_field_is_named(self, block, bad):
        key, value = bad
        with pytest.raises(ConfigError) as info:
            parse_config(rabi_config(dynamic={**block, key: value}))
        assert info.value.path == f"$.dynamic.{key}"

    @given(block=valid_dynamic, ignored=st.dictionaries(st.sampled_from(IGNORED_KEYS),
                                                         st.integers(), min_size=1))
    def test_ignored_keys_load_with_one_warning_each(self, block, ignored):
        with cli_warnings() as records:
            controls = parse_config(rabi_config(dynamic={**block, **ignored})).controls
        assert controls == parse_config(rabi_config(dynamic=block)).controls
        messages = sorted(record.getMessage() for record in records)
        assert len(messages) == len(ignored)
        for message, key in zip(messages, sorted(ignored)):
            assert message.startswith(f"$.dynamic.{key} is ignored")


nonneg = st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, BIGGEST)
not_number = st.one_of(st.booleans(), non_finite, st.none(), st.text(max_size=4),
                       st.lists(st.integers(), max_size=2))
not_str = st.one_of(number, st.booleans(), st.none(), st.lists(st.integers(), max_size=2))
BAD_VALUES = {
    "number": not_number,
    "str": not_str,
    "object": st.one_of(number, st.booleans(), st.text(max_size=4),
                        st.lists(st.integers(), max_size=2)),
    "pair": st.one_of(
        number, st.text(max_size=4), st.lists(number, max_size=1),
        st.lists(number, min_size=3, max_size=4),
        st.tuples(number, st.booleans() | non_finite | st.text(max_size=2)).map(list),
    ),
    "list": st.one_of(number, st.booleans(), st.none(), st.text(max_size=4),
                      st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                      # an entry beyond the double range
                      st.lists(number, max_size=2).map(lambda values: values + [10**400])),
}
# the keys of each kind of config object, by the kind of value they take
KEYS = {
    "rabi": {"kind": "kind", "m_y": "object", "omega_f": "number", "omega": "number",
             "omega_21": "number", "label": "str"},
    "unstable": {"kind": "kind", "m_y": "object", "omega_f": "number", "lambda_r": "number",
                 "lambda_i": "number", "m_z": "object", "z_resonance": "number",
                 "label": "str"},
    "scattering": {"kind": "kind", "m_y": "object", "omega_f": "number", "rate": "number",
                   "m_z": "object", "z_resonance": "number", "label": "str"},
    "flat": {"kind": "kind", "level": "number", "support": "pair"},
    "power_law": {"kind": "kind", "amplitude": "number", "exponent": "number",
                  "support": "pair"},
    "tabulated": {"kind": "kind", "omega": "list", "values": "list"},
}
BAD_VALUES["kind"] = not_str | st.text(max_size=12).filter(lambda k: k not in KEYS)
REQUIRED = {
    "rabi": ("kind", "m_y", "omega_f", "omega", "omega_21"),
    "unstable": ("kind", "m_y", "omega_f"),
    "scattering": ("kind", "m_y", "omega_f"),
    **{kind: tuple(KEYS[kind]) for kind in ("flat", "power_law", "tabulated")},
}


def exact_repr(obj):
    """repr with every array entry in full, so equal text means equal values."""
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        return repr(obj)


def scenario_only(scenario):
    return parse_config({"schema_version": 1, "scenario": scenario},
                        require_sweep=False).scenario


@st.composite
def densities(draw):
    """A valid density object and the density it describes."""
    kind = draw(st.sampled_from(["flat", "power_law", "tabulated"]))
    if kind == "flat":
        level, support = draw(nonneg), draw(window)
        expected = FlatDensity(level=float(level), support=support)
        return {"kind": kind, "level": level, "support": list(support)}, expected
    if kind == "power_law":
        amplitude, exponent = draw(nonneg), draw(number)
        support = draw(st.tuples(nonneg, nonneg).filter(
            lambda p: float(p[0]) < float(p[1]) and (float(exponent) >= 0 or float(p[0]) > 0)))
        expected = PowerLawDensity(amplitude=float(amplitude), exponent=float(exponent),
                                   support=support)
        return ({"kind": kind, "amplitude": amplitude, "exponent": exponent,
                 "support": list(support)}, expected)
    omega = sorted(draw(st.lists(number, min_size=2, max_size=6, unique_by=float)), key=float)
    values = draw(st.lists(nonneg, min_size=len(omega), max_size=len(omega)))
    expected = TabulatedDensity(omega=np.array(omega, dtype=float),
                                values=np.array(values, dtype=float))
    return {"kind": kind, "omega": omega, "values": values}, expected


@st.composite
def scenarios(draw):
    """A valid scenario object of any kind and form, and the scenario it describes."""
    kind = draw(st.sampled_from(["rabi", "unstable", "scattering"]))
    raw, kwargs = {"kind": kind}, {}

    def put(key, value):
        raw[key] = value
        kwargs[key] = float(value)

    raw["m_y"], kwargs["m_y"] = draw(densities())
    put("omega_f", draw(number))
    if draw(st.booleans()):
        raw["label"] = kwargs["label"] = draw(st.text(max_size=8))
    if kind == "rabi":
        put("omega", draw(positive))
        put("omega_21", draw(positive))
    elif draw(st.booleans()):
        raw["m_z"], kwargs["m_z"] = draw(densities())
        put("z_resonance", draw(number))
    else:
        put("lambda_r" if kind == "unstable" else "rate", draw(nonneg))
    if kind == "unstable" and draw(st.booleans()):
        put("lambda_i", draw(number))
    cls = {"rabi": RabiDriveScenario, "unstable": UnstableLevelScenario,
           "scattering": ScatteringScenario}[kind]
    return raw, cls(**kwargs)


@st.composite
def one_bad_field(draw, raw, path):
    """raw with one field made bad, and the path that names the field."""
    keys = KEYS[raw["kind"]]
    bad = dict(raw)
    how = draw(st.sampled_from(["unknown", "missing", "value"]))
    if how == "unknown":
        key = draw(st.text(min_size=1, max_size=12).filter(lambda k: k not in keys))
        bad[key] = draw(st.integers())
    elif how == "missing":
        key = draw(st.sampled_from(REQUIRED[raw["kind"]]))
        del bad[key]
    else:
        key = draw(st.sampled_from(sorted(keys)))
        bad[key] = draw(BAD_VALUES[keys[key]])
    return bad, f"{path}.{key}"


SWEEP_KEYS = ("path", "values", "start", "stop", "count", "spacing")
RABI_PATHS = ("rabi.omega", "rabi.omega_21", "omega_f")
increasing = st.lists(number, min_size=1, max_size=8, unique_by=float).map(
    lambda values: sorted(values, key=float))


@st.composite
def sweeps(draw):
    """A valid sweep object for a rabi scenario, and the values it sweeps."""
    sweep = {"path": draw(st.sampled_from(RABI_PATHS))}
    if draw(st.booleans()):
        sweep["values"] = draw(increasing)
        return sweep, np.array(sweep["values"], dtype=float)
    start, stop = draw(window)
    count = draw(st.integers(1, cli._MAX_POINTS))
    sweep.update(start=start, stop=stop, count=count)
    spread = np.linspace
    if float(start) > 0 and draw(st.booleans()):
        sweep["spacing"] = "log"
        spread = np.geomspace
    elif draw(st.booleans()):
        sweep["spacing"] = "linear"
    with np.errstate(all="ignore"):
        values = spread(float(start), float(stop), count)
    # a grid that leaves the double range is invalid (test_overflowing_grid_is_rejected)
    assume(np.all(np.isfinite(values)))
    return sweep, values


BAD_SWEEP_VALUES = {
    "path": not_str | st.text(max_size=12).filter(lambda p: p not in cli._SWEEP_PATHS),
    "values": st.one_of(BAD_VALUES["list"], st.just([]),
                        increasing.map(lambda values: values + values[-1:]),
                        st.tuples(number, st.booleans() | non_finite).map(list)),
    "start": not_number,
    "stop": not_number,
    "count": st.one_of(not_number, st.floats(), st.integers(max_value=0),
                       st.integers(min_value=cli._MAX_POINTS + 1)),
    "spacing": not_str | st.text(max_size=8).filter(lambda s: s not in ("linear", "log")),
}
valid_output = st.fixed_dictionaries({}, optional={
    "path": st.text(max_size=12), "format": st.sampled_from(["csv", "json"])})
bad_output_field = st.one_of(
    st.tuples(st.text(min_size=1, max_size=12).filter(lambda k: k not in ("path", "format")),
              st.integers()),
    st.tuples(st.sampled_from(["path", "format"]), not_str),
    st.tuples(st.just("format"), st.text(max_size=8).filter(lambda f: f not in ("csv", "json"))),
)


def test_reader_covers_every_field_annotation():
    """A field of a type the config reader cannot read fails here, not in a config."""
    classes = (FlatDensity, PowerLawDensity, TabulatedDensity, RabiDriveScenario,
               UnstableLevelScenario, ScatteringScenario, DynamicControls)
    for cls in classes:
        for field in dataclasses.fields(cls):
            assert field.type.removesuffix(" | None") in cli._READERS, (cls, field.name)


class TestScenarioBlockProperties:
    @given(scenario=scenarios())
    def test_valid_scenario_round_trips(self, scenario):
        raw, expected = scenario
        assert exact_repr(scenario_only(raw)) == exact_repr(expected)

    @given(scenario=scenarios(), data=st.data())
    def test_invalid_field_is_named(self, scenario, data):
        raw, _ = scenario
        target = data.draw(st.sampled_from([None] + [k for k in ("m_y", "m_z") if k in raw]))
        if target is None:
            bad, path = data.draw(one_bad_field(raw, "$.scenario"))
        else:
            density, path = data.draw(one_bad_field(raw[target], f"$.scenario.{target}"))
            bad = {**raw, target: density}
        with pytest.raises(ConfigError) as info:
            scenario_only(bad)
        assert info.value.path == path

    @given(scenario=scenarios().filter(lambda s: s[0]["kind"] != "rabi" and "m_z" not in s[0]))
    def test_null_m_z_is_absent(self, scenario):
        raw, expected = scenario
        assert exact_repr(scenario_only({**raw, "m_z": None})) == exact_repr(expected)

    @given(scenario=scenarios())
    def test_null_number_is_rejected(self, scenario):
        raw, _ = scenario
        with pytest.raises(ConfigError) as info:
            scenario_only({**raw, "omega_f": None})
        assert info.value.path == "$.scenario.omega_f"


class TestSweepAndOutputBlockProperties:
    @given(sweep=sweeps())
    def test_valid_sweep_round_trips(self, sweep):
        raw, expected = sweep
        config = parse_config(rabi_config(sweep=raw))
        assert config.sweep_path == raw["path"]
        assert np.array_equal(config.sweep_values, expected)

    @given(sweep=sweeps(), data=st.data())
    def test_invalid_sweep_field_is_named(self, sweep, data):
        raw, _ = sweep
        if "values" in raw:
            # without its values a sweep is read as a range
            allowed, required = ("path", "values"), ("path",)
        else:
            allowed = ("path", "start", "stop", "count", "spacing")
            required = allowed[:4]
        how = data.draw(st.sampled_from(["unknown", "missing", "value"]))
        if how == "unknown":
            key = data.draw(st.text(min_size=1, max_size=12).filter(
                lambda k: k not in SWEEP_KEYS))
            raw = {**raw, key: 1}
        elif how == "missing":
            key = data.draw(st.sampled_from(required))
            raw = {k: v for k, v in raw.items() if k != key}
        else:
            key = data.draw(st.sampled_from(allowed))
            raw = {**raw, key: data.draw(BAD_SWEEP_VALUES[key])}
        with pytest.raises(ConfigError) as info:
            parse_config(rabi_config(sweep=raw))
        assert info.value.path == f"$.sweep.{key}"

    def test_overflowing_grid_is_rejected(self):
        # stop - start is beyond the double range
        sweep = {"path": "rabi.omega", "start": -1.7e308, "stop": 1.7e308, "count": 5}
        with pytest.raises(ConfigError) as info:
            parse_config(rabi_config(sweep=sweep))
        assert info.value.path == "$.sweep.stop"

    @given(output=valid_output)
    def test_valid_output_round_trips(self, output):
        config = parse_config(rabi_config(output=output))
        assert config.out_path == output.get("path")
        assert config.out_format == output.get("format", "csv")

    @given(output=valid_output, bad=bad_output_field)
    def test_invalid_output_field_is_named(self, output, bad):
        key, value = bad
        with pytest.raises(ConfigError) as info:
            parse_config(rabi_config(output={**output, key: value}))
        assert info.value.path == f"$.output.{key}"


class TestColumnsAndRendering:
    def test_analytic_header_matches_contract(self):
        cols = sweep_columns("analytic")
        assert ",".join(cols).startswith(
            "sweep_param,sweep_value,gamma_analytic,gamma0,ratio,status"
        )
        assert "gamma_dynamic" not in cols
        assert "fit_residual" not in cols

    def test_both_routes_add_comparison_columns(self):
        cols = sweep_columns("both")
        assert cols.index("gamma_analytic") < cols.index("gamma_dynamic")
        assert "route_discrepancy" in cols
        assert "fit_residual" in cols
        assert "normalization_defect" in cols

    def test_csv_floats_round_trip(self):
        rows = [{"a": 1.0 / 3.0, "b": 2.24 * np.pi, "c": None, "d": "ok"}]
        header, data = parse_csv(render_rows(rows, ["a", "b", "c", "d"], "csv"))
        assert header == ["a", "b", "c", "d"]
        assert float(data[0][0]) == 1.0 / 3.0
        assert float(data[0][1]) == 2.24 * np.pi
        assert data[0][2] == ""
        assert data[0][3] == "ok"

    def test_json_round_trip(self):
        rows = [{"a": 0.1 + 0.2, "b": None, "c": "ok"}]
        parsed = json.loads(render_rows(rows, ["a", "b", "c"], "json"))
        assert parsed == [{"a": 0.1 + 0.2, "b": None, "c": "ok"}]


class TestRunSweep:
    def test_retired_dim_budget_changes_no_byte(self):
        # criterion 9's sweep (tests/test_acceptance.py), whose 801-state
        # models the retired budget of 801 would have admitted exactly
        config = rabi_config(
            scenario={"kind": "rabi", "omega_f": 1.0, "omega": 0.1, "omega_21": 5.0,
                      "m_y": {"kind": "power_law", "amplitude": 5e-4, "exponent": 3.0,
                              "support": [0.0, 2.0]}},
            routes="both",
            dynamic={"n_y": 400, "dt": 0.0035, "horizon": 300.0, "fit_window": [126.0, 299.0]},
        )
        with cli_warnings() as records:
            budgeted = parse_config({**config, "dynamic": {**config["dynamic"],
                                                           "dim_budget": 801}})
        assert [record.getMessage() for record in records] == [
            "$.dynamic.dim_budget is ignored: one allocation cap bounds every array"]
        columns = sweep_columns("both")
        assert (render_rows(run_sweep(budgeted), columns, "csv")
                == render_rows(run_sweep(parse_config(config)), columns, "csv"))

    def test_rabi_ratio_column(self):
        config = parse_config(rabi_config())
        rows = run_sweep(config)
        assert [row["status"] for row in rows] == ["ok", "ok", "ok"]
        ratios = [row["ratio"] for row in rows]
        for got, want in zip(ratios, (1.0075, 1.03, 1.12)):
            assert got == pytest.approx(want, rel=1e-12)
        assert rows[0]["gamma0"] == pytest.approx(2.0 * np.pi, rel=1e-12)
        assert rows[0]["normalization_defect"] == 0.0

    def test_row_failure_is_isolated(self):
        cfg = rabi_config(
            scenario={
                "kind": "unstable",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "lambda_r": 0.1,
                "lambda_i": 0.5,
            },
            sweep={"path": "unstable.lambda_r", "values": [0.0, 0.5]},
        )
        rows = run_sweep(parse_config(cfg))
        assert rows[0]["status"] == "error"
        assert rows[0]["gamma_analytic"] is None
        assert "fold the shift" in rows[0]["warnings"]
        assert rows[1]["status"] == "ok"
        assert rows[1]["gamma_analytic"] > 0

    def test_parallel_rendering_matches_serial(self):
        cfg = rabi_config()
        cfg["sweep"] = {"path": "rabi.omega", "start": 0.05, "stop": 0.5,
                        "count": 12}
        failing = rabi_config(
            scenario={
                "kind": "unstable",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "lambda_r": 0.1,
                "lambda_i": 0.5,
            },
            sweep={"path": "unstable.lambda_r", "values": [0.0, 0.5]},
        )
        # more workers than rows, and a row whose error crosses the pool
        for raw, jobs in ((cfg, 4), (failing, 8)):
            config = parse_config(raw)
            columns = sweep_columns(config.routes)
            serial = render_rows(run_sweep(config, jobs=1), columns, "csv")
            pooled = render_rows(run_sweep(config, jobs=jobs), columns, "csv")
            assert serial == pooled
        assert ",error," in pooled and "fold the shift" in pooled

    def test_patched_rows_come_back_in_sweep_order(self, monkeypatch):
        # the rows run in this process, so a patch of the module reaches
        # each of them; earlier rows sleep longer and finish last, and a
        # short switch interval interleaves the threads' bytecode finely
        values = [0.1, 0.2, 0.3, 0.4]
        analytic = cli.analytic_gamma
        seen = []

        def tagged(scenario, kernel):
            seen.append(scenario.omega)
            time.sleep(0.02 * (len(values) - values.index(scenario.omega)))
            result = analytic(scenario, kernel)
            return dataclasses.replace(result, warnings=(f"row {scenario.omega!r}",))

        monkeypatch.setattr(cli, "analytic_gamma", tagged)
        config = parse_config(rabi_config(sweep={"path": "rabi.omega", "values": values}))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = run_sweep(config, jobs=2)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == values
        assert [row["sweep_value"] for row in rows] == values
        assert [row["warnings"] for row in rows] == [f"row {v!r}" for v in values]

    def test_pool_is_capped_at_the_cores(self, monkeypatch):
        sizes = []

        class Recorder(cli.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recorder)
        cores = os.cpu_count() or 1
        values = list(np.linspace(0.1, 0.5, cores + 2))
        config = parse_config(rabi_config(sweep={"path": "rabi.omega", "values": values}))
        columns = sweep_columns(config.routes)
        pooled = render_rows(run_sweep(config, jobs=64), columns, "csv")
        assert sizes == ([cores] if cores > 1 else [])
        assert pooled == render_rows(run_sweep(config, jobs=1), columns, "csv")

    def test_coarse_cascade_step_is_flagged_and_row_stays_ok(self):
        cfg = rabi_config(
            scenario={"kind": "unstable", "m_y": dict(FLAT_Y), "omega_f": 0.0,
                      "lambda_r": 0.3},
            sweep={"path": "omega_f", "values": [0.0]},
            routes="dynamic",
            dynamic={"n_y": 100, "n_z": 50, "dt": 0.15},
        )
        (row,) = run_sweep(parse_config(cfg))
        assert row["status"] == "ok"
        assert row["warnings"].startswith("step_error=")

    @pytest.mark.parametrize("dt", [1e-320, 1e-300])
    def test_step_count_no_float_holds_fails_its_row(self, dt):
        cfg = rabi_config(sweep={"path": "rabi.omega", "values": [0.2]}, routes="dynamic",
                          dynamic={"n_y": 120, "dt": dt})
        (row,) = run_sweep(parse_config(cfg))
        assert row["status"] == "dimension_over_budget"
        assert row["warnings"].startswith("time grid needs ")

    def test_rate_row_builds_one_kernel(self, monkeypatch):
        import zenodecay.scenarios as scenarios

        calls = []
        transform = scenarios.kernel_from_dissipation

        def counting(trace):
            calls.append(trace)
            return transform(trace)

        monkeypatch.setattr(scenarios, "kernel_from_dissipation", counting)
        cfg = rabi_config(
            scenario={"kind": "scattering", "m_y": dict(FLAT_Y), "omega_f": 0.0,
                      "rate": 1.0},
            sweep={"path": "scattering.rate", "values": [1.0]},
        )
        rows = run_sweep(parse_config(cfg))
        assert rows[0]["status"] == "ok"
        assert len(calls) == 1


class TestMain:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path, rabi_config())
        assert main(["run", cfg, "--out", str(out)]) == 0
        header, data = parse_csv(out.read_text())
        assert header[:3] == ["sweep_param", "sweep_value", "gamma_analytic"]
        assert len(data) == 3
        assert data[1][header.index("ratio")] == repr(
            float(data[1][header.index("ratio")])
        )

    def test_run_row_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, rabi_config(
            scenario={
                "kind": "unstable",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "lambda_r": 0.1,
                "lambda_i": 0.5,
            },
            sweep={"path": "unstable.lambda_r", "values": [0.0, 0.5]},
        ))
        out = tmp_path / "report.csv"
        assert main(["run", cfg, "--out", str(out)]) == 1
        _, data = parse_csv(out.read_text())
        assert data[0][-1].startswith("zero width")

    def test_run_rejects_jobs_below_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config())
        for jobs in ("0", "-3"):
            assert main(["run", cfg, "--jobs", jobs]) == 2
            captured = capsys.readouterr()
            assert "--jobs" in captured.err
            assert captured.out == ""

    def test_validate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config())
        assert main(["validate", cfg]) == 0
        assert capsys.readouterr().out.strip().endswith("ok")

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(routes="fastest"))
        assert main(["validate", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_accepts_sweepless_config(self, tmp_path):
        cfg = rabi_config()
        del cfg["sweep"]
        assert main(["validate", write_config(tmp_path, cfg)]) == 0

    def test_missing_file_is_config_error(self, capsys):
        assert main(["validate", "/nonexistent/config.json"]) == 2

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1,')
        assert main(["validate", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_out_into_a_missing_directory_is_an_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config())
        assert main(["kernel", cfg, "--out", str(tmp_path / "missing" / "kernel.csv")]) == 1
        assert capsys.readouterr().err.startswith("io error: ")

    def test_kernel_atoms(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config())
        assert main(["kernel", cfg]) == 0
        header, data = parse_csv(capsys.readouterr().out)
        assert header == ["position", "weight"]
        assert [float(row[0]) for row in data] == [-0.1, 0.1]
        assert [float(row[1]) for row in data] == [0.5, 0.5]

    def test_kernel_density_needs_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(
            scenario={
                "kind": "unstable",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "lambda_r": 1.0,
            },
            sweep=None,
        ))
        assert main(["kernel", cfg]) == 2
        assert main(["kernel", cfg, "--range", "bad"]) == 2
        assert main(["kernel", cfg, "--range", "1:0:5"]) == 2
        capsys.readouterr()
        assert main(["kernel", cfg, "--range=-1:1:5"]) == 0
        header, data = parse_csv(capsys.readouterr().out)
        assert header == ["epsilon", "density"]
        assert len(data) == 5
        # symmetric grid around the center: peak value 1/(pi lambda_r)
        assert float(data[2][1]) == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_validate_rejects_oversized_sweep(self, tmp_path, capsys):
        sweep = {"path": "rabi.omega", "start": 0.1, "stop": 1, "count": 10**20}
        assert main(["validate", write_config(tmp_path, rabi_config(sweep=sweep))]) == 2
        assert capsys.readouterr().err.startswith("config error: $.sweep.count")

    def test_kernel_rejects_oversized_or_overflowing_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(scenario=dict(SHIFT_ONLY, lambda_r=1.0),
                                                 sweep=None))
        for spec in ("-1:1:100000000000000000000", "-1.7e308:1.7e308:5", "a:1:5"):
            assert main(["kernel", cfg, f"--range={spec}"]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: --range")
            assert captured.out == ""

    def test_trace_dissipation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(
            scenario={
                "kind": "scattering",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "rate": 0.25,
            },
            sweep=None,
        ))
        assert main(["trace", cfg, "--quantity", "D", "--horizon", "10"]) == 0
        header, data = parse_csv(capsys.readouterr().out)
        assert header == ["time", "real", "imag", "abs"]
        times = np.array([float(r[0]) for r in data])
        mags = np.array([float(r[3]) for r in data])
        np.testing.assert_allclose(mags, np.exp(-0.25 * times), atol=1e-12)

    def test_trace_amplitude_of_synthesized_scattering_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(
            scenario={"kind": "scattering", "m_y": dict(FLAT_Y), "omega_f": 0.0,
                      "rate": 0.25},
            sweep=None,
        ))
        assert main(["trace", cfg, "--quantity", "F", "--horizon", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the bare-rate scattering form")
        assert captured.out == ""

    def test_trace_of_shift_without_width_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(scenario=SHIFT_ONLY, sweep=None))
        assert main(["trace", cfg, "--quantity", "D", "--horizon", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: nothing to build")
        assert captured.out == ""

    def test_kernel_of_shift_without_width_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(scenario=SHIFT_ONLY, sweep=None))
        assert main(["kernel", cfg, "--range=-1:1:5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: zero width with a nonzero shift")
        assert captured.out == ""

    def test_trace_cascade_amplitude_by_memory_kernel(self, tmp_path, capsys):
        scenario = {"kind": "unstable", "m_y": dict(FLAT_Y), "omega_f": 0.0,
                    "lambda_r": 0.3}
        cfg = write_config(tmp_path, rabi_config(scenario=scenario, sweep=None,
                                                 dynamic={"n_y": 100, "n_z": 50}))
        assert main(["trace", cfg, "--quantity", "F", "--horizon", "5"]) == 0
        header, data = parse_csv(capsys.readouterr().out)
        config = load_config(cfg, require_sweep=False)
        trace, _ = scenario_amplitude(config.scenario, 5.0, config.controls)
        assert [float(row[0]) for row in data] == list(trace.times)
        assert [complex(float(row[1]), float(row[2])) for row in data] == list(trace.values)

    def test_trace_renders_json(self, tmp_path, capsys):
        scenario = {"kind": "unstable", "m_y": dict(FLAT_Y), "omega_f": 0.0,
                    "lambda_r": 0.3}
        cfg = write_config(tmp_path, rabi_config(scenario=scenario, sweep=None,
                                                 dynamic={"n_y": 100, "n_z": 50}))
        assert main(["trace", cfg, "--quantity", "F", "--horizon", "5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        config = load_config(cfg, require_sweep=False)
        trace, _ = scenario_amplitude(config.scenario, 5.0, config.controls)
        assert [row["time"] for row in rows] == list(trace.times)
        assert [complex(row["real"], row["imag"]) for row in rows] == list(trace.values)
        assert [row["abs"] for row in rows] == list(np.abs(trace.values))

    def test_trace_cascade_amplitude_warns_of_a_coarse_step(self, tmp_path, capsys):
        scenario = {"kind": "unstable", "m_y": dict(FLAT_Y), "omega_f": 0.0,
                    "lambda_r": 0.3}
        cfg = write_config(tmp_path, rabi_config(scenario=scenario, sweep=None,
                                                 dynamic={"n_y": 100, "n_z": 50, "dt": 0.15}))
        assert main(["trace", cfg, "--quantity", "F", "--horizon", "10"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: step_error=")
        assert len(parse_csv(captured.out)[1]) == 68

    def test_trace_cascade_dissipation_warns_of_a_coarse_step(self, tmp_path, capsys):
        # a Z band half as wide as its coupling is strong outruns a step of 0.5
        scenario = {"kind": "unstable", "m_y": dict(FLAT_Y), "omega_f": 0.0,
                    "m_z": {"kind": "flat", "level": 0.5, "support": [-0.5, 0.5]},
                    "z_resonance": 0.0}
        cfg = write_config(tmp_path, rabi_config(scenario=scenario, sweep=None,
                                                 dynamic={"n_z": 50, "dt": 0.5}))
        assert main(["trace", cfg, "--quantity", "D", "--horizon", "20"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: step_error=")
        assert len(parse_csv(captured.out)[1]) == 41

    @pytest.mark.parametrize("quantity", ["F", "D"])
    def test_trace_refuses_a_memory_kernel_grid_too_long_for_memory(self, tmp_path, capsys,
                                                                     quantity):
        # dt 1e-9 to horizon 30 is 3e10 steps, some 5 TB at 160 bytes a step
        scenario = {"kind": "unstable", "m_y": dict(FLAT_Y), "omega_f": 0.05,
                    "m_z": {"kind": "flat", "level": 0.1, "support": [-12.0, 12.0]},
                    "z_resonance": 0.0}
        cfg = write_config(tmp_path, rabi_config(scenario=scenario, sweep=None,
                                                 dynamic={"n_y": 120, "n_z": 80, "dt": 1e-9}))
        tracemalloc.start()
        try:
            code = main(["trace", cfg, "--quantity", quantity, "--horizon", "30"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith("error: memory-kernel solve needs ")
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("kind, dt, quantity", [
        ("unstable", 1e-320, "F"), ("unstable", 1e-320, "D"), ("unstable", 1e-300, "F"),
        ("rabi", 1e-300, "F"), ("rabi", 1e-300, "D")])
    def test_trace_refuses_a_step_count_no_float_holds(self, tmp_path, capsys, kind, dt,
                                                       quantity):
        # horizon / dt is inf at 1e-320; at 1e-300 its int has 302 digits
        scenario = {"kind": "unstable", "m_y": dict(FLAT_Y), "omega_f": 0.05,
                    "m_z": {"kind": "flat", "level": 0.1, "support": [-12.0, 12.0]},
                    "z_resonance": 0.0}
        raw = rabi_config(sweep=None, dynamic={"n_y": 120, "n_z": 80, "dt": dt})
        if kind == "unstable":
            raw["scenario"] = scenario
        cfg = write_config(tmp_path, raw)
        tracemalloc.start()
        try:
            code = main(["trace", cfg, "--quantity", quantity, "--horizon", "30"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        steps = "inf" if dt == 1e-320 else "3e+301"
        assert capsys.readouterr().err == f"error: time grid needs {steps} steps, at most 2**53\n"
        assert peak < 10 * 2**20

    def test_trace_cascade_amplitude_on_two_samples(self, tmp_path, capsys):
        # a horizon under 1.5 dt is one step: no check, and the trace prints
        scenario = {"kind": "unstable", "m_y": dict(FLAT_Y), "omega_f": 0.0,
                    "lambda_r": 0.3}
        cfg = write_config(tmp_path, rabi_config(scenario=scenario, sweep=None,
                                                 dynamic={"n_y": 100, "n_z": 50, "dt": 0.04}))
        assert main(["trace", cfg, "--quantity", "F", "--horizon", "0.05"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [float(row[0]) for row in parse_csv(captured.out)[1]] == [0.0, 0.05]

    def test_trace_rejects_bad_horizon(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config())
        assert main(["trace", cfg, "--horizon", "-5"]) == 2

    def test_trace_no_decay_amplitude(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rabi_config(
            scenario={
                "kind": "rabi",
                "m_y": dict(FLAT_Y),
                "omega_f": 0.0,
                "omega": 0.2,
                "omega_21": 4.0,
            },
            dynamic={"n_y": 100},
        ))
        assert main(["trace", cfg, "--quantity", "F", "--horizon", "5"]) == 0
        header, data = parse_csv(capsys.readouterr().out)
        assert header == ["time", "real", "imag", "abs"]
        assert float(data[0][3]) == 1.0
        assert all(float(row[3]) <= 1.0 + 1e-9 for row in data)


def _live_in_session(session):
    """Pids of the processes in a session that are not zombies."""
    live = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process exited while the directory was listed
            continue
        # the fields after the parenthesised command name: state, ppid,
        # process group, session
        state, _, _, sid = text[text.rindex(")") + 2:].split()[:4]
        if int(sid) == session and state != "Z":
            live.append(int(stat.parent.name))
    return live


class TestModuleEntryPoint:
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
    def test_no_live_process_outlives_a_pooled_run(self, tmp_path):
        cfg = write_config(tmp_path, rabi_config())
        out, err = tmp_path / "out.csv", tmp_path / "err.txt"
        # files, not pipes: a process left running would hold a pipe open
        # and keep the wait from returning until it exits
        with open(err, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "zenodecay", "run", cfg, "--jobs", "2",
                 "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True,
            )
        try:
            assert proc.wait(timeout=120) == 0, err.read_text()
            assert len(out.read_text().splitlines()) == 4
            # the new session's id is the run's pid; the forkserver and the
            # resource tracker exit once the run closes their pipes
            deadline = time.monotonic() + 5.0
            while (live := _live_in_session(proc.pid)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert live == []
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

    def test_import_leaves_out_scipy_integrate(self):
        # the rate integral has its own quadrature, so no command pays for
        # importing QUADPACK
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, zenodecay.cli; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"

    def test_python_dash_m_invocation(self, tmp_path):
        cfg = write_config(tmp_path, rabi_config())
        proc = subprocess.run(
            [sys.executable, "-m", "zenodecay", "validate", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("ok")
