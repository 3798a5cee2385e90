"""Canonical JSON writer: byte-equal to ``json.dumps`` of the exact data."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoplan.render import dump_json


def jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def oracle(data) -> str:
    """The standard library's indented encoder, on strings for Fractions and keys."""
    return json.dumps(jsonable(data), indent=2, sort_keys=True) + "\n"


fractions = st.one_of(
    st.fractions(max_denominator=50),
    st.builds(Fraction, st.integers(-(10**80), 10**80), st.integers(1, 10**60)),
)
scalars = st.one_of(
    fractions,
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.text(st.characters(max_codepoint=0x3F), max_size=4),
    st.floats(),
)
# each group stringifies to one text, so dictionaries collide after str()
keys = st.one_of(
    st.sampled_from([1, "1", Fraction(1, 2), "1/2", True, "True", None, "None", -3, "-3"]),
    st.text(max_size=3),
    st.integers(-5, 5),
)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_dump_json_matches_the_standard_encoder(data):
    assert dump_json(data) == oracle(data)


class LoudStr(str):
    def __str__(self):
        return "loud"


class Row(dict):
    pass


record_values = st.one_of(
    scalars,
    st.sampled_from([[], {}, ()]),
    st.lists(st.dictionaries(st.sampled_from("ab"), scalars, min_size=2, max_size=2), max_size=3),
    st.dictionaries(keys, scalars, max_size=3),
)


@st.composite
def record_lists(draw):
    """Two or more dicts on one set of ``str`` keys, with values of every
    kind, and at times one odd row in the middle: another key set, a
    ``LoudStr`` key equal to a shared key, a key ``1`` beside ``"1"``, or a
    dict subclass."""
    names = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    rows = [
        {name: draw(record_values) for name in draw(st.permutations(names))}
        for _ in range(draw(st.integers(2, 5)))
    ]
    odd = dict(rows[0])
    odd_kind = draw(st.sampled_from(["none", "keys", "loud", "collide", "subclass"]))
    if odd_kind == "keys":
        odd[names[0] + "x"] = 0
    elif odd_kind == "loud":
        odd[LoudStr(names[0])] = odd.pop(names[0])
    elif odd_kind == "collide":
        odd.update({1: "int", "1": "str"})
    elif odd_kind == "subclass":
        odd = Row(odd)
    if odd_kind != "none":
        rows.insert(len(rows) // 2, odd)
    return rows


@settings(max_examples=300, deadline=None)
@given(record_lists())
def test_record_lists_match_the_standard_encoder(rows):
    assert dump_json(rows) == oracle(rows)
    assert dump_json({"rows": rows}) == oracle({"rows": rows})


def test_loud_key_equal_to_a_shared_key_prints_as_its_str():
    rows = [{"a": 1, "b": 2}, {LoudStr("a"): 3, "b": 4}, {"a": 5, "b": 6}]
    assert dump_json(rows) == oracle(rows)
    assert '"loud": 3' in dump_json(rows)


def test_colliding_keys_keep_the_last_value():
    data = {1: "int", "1": "str", Fraction(1, 2): "frac", "1/2": "text", None: 0, "None": 1}
    assert dump_json(data) == oracle(data)
    assert json.loads(dump_json(data)) == {"1": "str", "1/2": "text", "None": 1}


@pytest.mark.parametrize(
    "data",
    [[], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [(), {}, []], "", 0, None],
    ids=repr,
)
def test_empty_containers_and_bare_scalars(data):
    assert dump_json(data) == oracle(data)


def test_control_lone_surrogate_and_non_ascii_strings():
    data = {"\x00\x1f\n\t\"\\": ["\ud800", "é", "\U0001f600", "\x7f"]}
    assert dump_json(data) == oracle(data)


def test_nan_and_infinities():
    data = [float("nan"), float("inf"), -float("inf"), 0.1, -0.0, 1e300]
    assert dump_json(data) == oracle(data)
    assert dump_json(data).split() == [
        "[", "NaN,", "Infinity,", "-Infinity,", "0.1,", "-0.0,", "1e+300", "]"
    ]


class LoudInt(int):
    def __repr__(self):
        return "loud"

    __str__ = __repr__


class LoudFraction(Fraction):
    def __str__(self):
        return "loud"


class LoudFloat(float):
    def __repr__(self):
        return "loud"


@pytest.mark.parametrize(
    "data",
    [
        [LoudInt(3), LoudStr("s"), LoudFraction(1, 3), LoudFloat(0.5), LoudFloat("nan")],
        {LoudInt(3): LoudInt(4), LoudStr("k"): LoudStr("v"), LoudFraction(2, 5): 1},
        {"a": [LoudInt(1), [LoudFraction(7)]], "b": (LoudFloat(2.0),)},
    ],
    ids=["list", "keys", "nested"],
)
def test_subclasses_write_as_their_base_type(data):
    assert dump_json(data) == oracle(data)


@pytest.mark.parametrize(
    "data,name",
    [(object(), "object"), ({"a": [1, {2, 3}]}, "set"), ([1, b"x"], "bytes"), ({"a": 1j}, "complex")],
    ids=["object", "set", "bytes", "complex"],
)
def test_unserializable_raises_type_error(data, name):
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        dump_json(data)
