import json
from fractions import Fraction

import pytest

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
