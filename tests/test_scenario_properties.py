"""Property test: any JSON document is a Scenario or a clean error.

Documents are drawn from arbitrary JSON values, from well-typed objects
on the scenario keys (whose numbers may be out of range) and from such
objects with one value, at any depth, replaced by an arbitrary JSON
value. For each one ``parse_scenario`` returns a Scenario
or raises a HarmoniaError, and ``harmonia cc-check`` exits 0, 1 or 2 with
no traceback.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from harmonia import HarmoniaError
from harmonia.cli import Scenario, main, parse_scenario

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=8))
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)
# half of the numbers are in range for every field, so some documents parse
numbers = st.floats(0.5, 2.0) | st.integers(1, 3) | st.integers() | st.floats()


def section(typed: dict, required=()):
    """An object on the given keys, with the required ones always present."""
    optional = {key: value for key, value in typed.items() if key not in required}
    return st.fixed_dictionaries({key: typed[key] for key in required}, optional=optional)


@st.composite
def scenario_objects(draw):
    """A well-typed scenario object; its numbers may still be out of range."""
    n = draw(st.integers(1, 4))
    points = st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=n, max_size=n)
    return draw(section({
        "masses": st.lists(numbers, min_size=n, max_size=n),
        "positions": points,
        "velocities": points,
        "potential": section({
            "kind": st.sampled_from(["harmonic", "newtonian", "power"]),
            "exponent": numbers,
            "coupling": numbers,
        }, required=("kind",)),
        "integrator": section({
            "method": st.sampled_from(["verlet", "rk4", "velocity_verlet"]),
            "dt": numbers,
            "t_end": numbers,
            "stride": st.integers(),
        }, required=("method", "dt", "t_end")),
        "tolerances": section({key: numbers for key in ("cc", "inertia", "rigidity", "refine")}),
    }, required=("masses", "positions")))


def slots(value):
    """Every (container, key) pair inside a JSON value."""
    keys = value.keys() if isinstance(value, dict) else \
        range(len(value)) if isinstance(value, list) else ()
    for key in keys:
        yield value, key
        yield from slots(value[key])


@st.composite
def wrong_typed_objects(draw):
    """A well-typed scenario object with one value replaced by any JSON value."""
    doc = draw(scenario_objects())
    container, key = draw(st.sampled_from(list(slots(doc))))
    container[key] = draw(values)
    return doc


documents = values | scenario_objects() | wrong_typed_objects()


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "scenario.json"


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents)
def test_any_document_parses_or_fails_cleanly(scenario_path, doc):
    text = json.dumps(doc)
    try:
        assert isinstance(parse_scenario(text), Scenario)
    except HarmoniaError:
        pass
    scenario_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["cc-check", str(scenario_path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 1:
        assert out.getvalue().startswith("error: ")
        assert len(out.getvalue().splitlines()) == 1
