import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohomrep import serialize as ser
from cohomrep.partitions import BoxContext, compatible_pair, ortho_classify
from cohomrep.rootdata import Weight


def test_pair_json():
    cp = compatible_pair((1,), (2, 1), BoxContext(2, 2))
    doc = ser.pair_to_json(cp)
    assert doc == {"lam": [1], "mu": [2, 1], "box": [2, 2], "rects": [[1, 1], [1, 1]]}


def test_orth_json():
    orth = ortho_classify((3, 1), BoxContext(3, 4))
    doc = ser.orth_to_json(orth)
    assert doc["pairs"] == [[1, 1]] and doc["central"] == [1, 2]
    assert doc["parity"] == "odd" and doc["even_type"] is None


def test_weight_half_integers():
    with pytest.raises(ValueError, match="not an integer"):
        Weight.make([Fraction(3, 2)], [-1, 1], "U")
    w = Weight.make([Fraction(3)], [-1, 0], "U")
    doc = ser.weight_to_json(w)
    assert doc == {"xs": [3], "ys": [-1, 0], "conv": "U"}
    assert json.dumps(doc) == '{"xs": [3], "ys": [-1, 0], "conv": "U"}'


def test_document_schema():
    doc = ser.document([{"a": 1}], command="x")
    assert doc["schema"] == "v1"
    text = ser.dumps(doc)
    assert json.loads(text)["data"] == [{"a": 1}]


def _json_oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# text includes control characters and non-ASCII
_text = st.text(st.characters(min_codepoint=0, max_codepoint=0x2FFF), max_size=6)
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-7])
_scalars = st.integers() | st.booleans() | st.none() | _floats | _floats.map(np.float64) | _text
_docs = st.recursive(_scalars, lambda inner: (
    st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_text, inner, max_size=5)), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_docs)
def test_dumps_is_the_json_text(doc):
    assert ser.dumps(doc) == _json_oracle(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), [[], {}], {"a": [(), {}]}, {"\u00e9\x00\n": [1, 2, 3]}, [True, 1, False, 0],
    [1, 2.0], {"x": [np.float64("nan"), np.float64(-0.0)]}, {1: "a", 2: "b"}, {2.5: 1, -1.0: 2},
])
def test_dumps_edge_cases(doc):
    assert ser.dumps(doc) == _json_oracle(doc)


def test_dumps_rejects_what_json_rejects():
    for bad in ({1, 2}, {"a": [1, {2}]}, {(1, 2): 0}, np.int64(3)):
        with pytest.raises(TypeError):
            _json_oracle(bad)
        with pytest.raises(TypeError):
            ser.dumps(bad)
