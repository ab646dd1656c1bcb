"""Annotation JSON texts for the checks that compare the piecewise load
with the whole-file load, in ``load_annotations`` and in ``build``."""

import contextlib
import json

import pytest
from hypothesis import strategies as st

from iconcap import iconclass


@contextlib.contextmanager
def pieces_of_one_member():
    """Cut the annotation text at every ``],``, so each piece holds at
    most one member and every member boundary is a piece boundary."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iconclass, "_PIECE", 1)
        yield


# text the piecewise fast path hands to the whole-file path
HANDED_OVER = {
    "trailing_comma_at_a_piece_boundary":
        '{"a.jpg": ["73"], "b.jpg": ["11F"],}',
    "bracket_comma_in_an_id": '{"a],b.jpg": ["73"], "c.jpg": ["11F"]}',
    "bracket_comma_in_a_code": '{"a.jpg": ["7],3"], "c.jpg": ["11F"]}',
    "id_repeated_across_pieces_same_value":
        '{"a.jpg": ["73"], "b.jpg": [], "a.jpg": ["73"]}',
    "id_repeated_across_pieces_different_value":
        '{"a.jpg": ["73"], "b.jpg": [], "a.jpg": ["11F"]}',
    "id_repeated_in_one_piece": '{"a.jpg": [], "a.jpg": []}',
    "nested_object_value": '{"a.jpg": ["73"], "b.jpg": {"x": ["73"]}}',
    "nested_object_code": '{"a.jpg": ["73"], "b.jpg": [{"x": 1}]}',
    "non_array_value": '{"a.jpg": ["73"], "b.jpg": "73"}',
    "whitespace_then_bom": ' \ufeff{"a.jpg": ["73"]}',
    "two_boms": '\ufeff\ufeff{"a.jpg": ["73"]}',
    "integer_code": '{"a.jpg": ["73"], "b.jpg": ["11F", 5]}',
    "nan_code": '{"a.jpg": ["73"], "b.jpg": [NaN]}',
    "array_code": '{"a.jpg": ["73"], "b.jpg": [[]]}',
    "deep_nesting":
        '{"a.jpg": ["73"], "b.jpg": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "integer_past_the_digit_limit": '{"a.jpg": [' + "1" * 5000 + "]}",
    "text_before_the_object": 'x{"a.jpg": ["73"]}',
    "trailing_data": '{"a.jpg": ["73"]} x',
    "top_level_array": '[["73"], ["11F"]]',
    "empty_text": "",
    "unclosed": '{"a.jpg": ["73"], "b.jpg": ["11F"]',
}

# text the fast path reads itself
TAKEN = {
    "empty_object": "{}",
    "empty_object_spaced": " { } ",
    "leading_and_trailing_whitespace":
        ' \n\t{"a.jpg": ["73"], "b.jpg": ["11F"]}\r\n',
    "bom": '\ufeff{"a.jpg": ["73"], "b.jpg": ["11F", "25G4(+1)"]}',
    "empty_arrays": '{"a.jpg": [], "b.jpg": [], "c.jpg": ["73"]}',
    "space_before_comma": '{"a.jpg": ["73"] , "b.jpg": ["11F"]}',
    "non_ascii": '{"é.jpg": ["73(ÉTÉ)"], "b.jpg": ["\\u0037"]}',
}


def _mostly(common, rare):
    """``common`` about seven times in eight, else ``rare``."""
    return st.one_of(*[common] * 7, rare)


_json_string = st.one_of(
    st.sampled_from(["73", "11F", "a.jpg", "],", "a], \"b\": [\"", ""]),
    st.text(max_size=5),
).map(json.dumps)
_code_token = _mostly(_json_string, st.sampled_from(
    ["5", "NaN", "[]", "{}", '{"x": 1}', "null", "true", "-0.5e3", '["73"]']))
_value_token = _mostly(
    st.lists(_code_token, max_size=3).map(
        lambda codes: f"[{', '.join(codes)}]"),
    st.sampled_from(["5", '"73"', "{}", '{"x": ["73"]}', '{"x": 1, "x": 2}',
                     "null", "[[[]]]"]))


@st.composite
def annotation_text(draw):
    """Mostly well-formed annotation JSON, with the seams the piecewise
    load cuts at: ``],`` in strings, repeated ids, stray commas, text
    around the object, and an edited character."""
    members = draw(st.lists(st.tuples(_json_string, _value_token),
                            max_size=6))
    colons = st.sampled_from([": ", ":", " : "])
    commas = st.sampled_from([", ", ",", " ,", ",\n"])
    body = ""
    for n, (key, value) in enumerate(members):
        body += (draw(commas) if n else "") + key + draw(colons) + value
    head = draw(st.sampled_from(["", " ", "\n\t", "\ufeff"]))
    tail = draw(st.sampled_from(["", " ", "\n"]))
    damage = draw(st.sampled_from(
        [None] * 4 + ["trailing_comma", "head", "tail", "edit"]))
    if damage == "trailing_comma":
        body += draw(commas)
    elif damage == "head":
        head = draw(st.sampled_from([" \ufeff", "x", "[", "\ufeff\ufeff"]))
    elif damage == "tail":
        tail = draw(st.sampled_from([" x", "}", ",", "]"]))
    text = head + "{" + body + "}" + tail
    if damage == "edit":
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(st.sampled_from(["", "]", ",", "],", '"'])) \
            + text[at + 1:]
    return text
