import hashlib
import json
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _catalog_reference import integer_weight
from cohomrep import partitions as pt
from cohomrep import serialize as ser
from cohomrep import vz_catalog as vz


def test_weight_half_integers():
    with pytest.raises(ValueError, match="not an integer"):
        integer_weight([Fraction(3, 2)], [-1, 1], "U")
    w = integer_weight([Fraction(3)], [-1, 0], "U")
    doc = ser.weight_to_json(w)
    assert doc == {"xs": (3,), "ys": (-1, 0), "conv": "U"}
    assert json.dumps(doc) == '{"xs": [3], "ys": [-1, 0], "conv": "U"}'


@pytest.mark.parametrize("kind, p, q", [("U", 2, 3), ("U", 3, 3), ("O", 2, 4), ("O", 3, 5)])
def test_module_rows_share_the_records_tuples(kind, p, q):
    # a row holds the module's own tuples, no list copies of them
    for m in vz.catalog(kind, p, q):
        row = ser.module_to_json(m)
        assert row["lam"] is m.lam and row["mu"] is m.mu and row["levi"] is m.levi
        assert row["lowest_ktype"]["xs"] is m.lowest_ktype.xs
        assert row["lowest_ktype"]["ys"] is m.lowest_ktype.ys


def test_document_schema():
    doc = ser.document([{"a": 1}], command="x")
    assert doc["schema"] == "v1"
    text = ser.dumps(doc)
    assert json.loads(text)["data"] == [{"a": 1}]


def _json_oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# subclasses whose own text differs from what json writes for them
class _Str(str):
    def __str__(self):
        return "str!"


class _Int(int):
    def __repr__(self):
        return "int!"


class _Float(float):
    def __repr__(self):
        return "float!"


class _List(list):
    pass


class _Dict(dict):
    pass


class _Record(NamedTuple):
    a: object
    b: object


# text includes control characters and non-ASCII
_text = st.text(st.characters(min_codepoint=0, max_codepoint=0x2FFF), max_size=6)
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-7])
_scalars = (st.integers() | st.booleans() | st.none() | _floats | _floats.map(np.float64) | _text
            | _text.map(_Str) | st.integers().map(_Int) | _floats.map(_Float))
# a shared pool, so sibling dicts often have the same key set; the batch
# writer turns every key into part of a `%` template
_key_pool = st.sampled_from(["a", "b", "%", "%s", "{x}", '"q"', "\u00e9"])
# equal keys that json prints differently
_number_keys = st.sampled_from([1, 1.0, True, 0, 0.0, False, 2.5])
# lists over one pair of items, so that a batch draws from a pool of at most
# six lists and equal lists repeat; the items of a pair compare equal but print
# apart, or (for "1" and 1) print alike but differ
_item_pairs = st.sampled_from([(0, False), (1, True), (1, 1.0), (0.0, -0.0), (0, 0.0), ("1", 1), (1, _Int(1))])
_pooled_lists = _item_pairs.flatmap(
    lambda pair: st.lists(st.lists(st.sampled_from(pair), min_size=1, max_size=2), min_size=2, max_size=8))
_B = ser._BLOCK


# a list of a few drawn items repeated to a length around `_BLOCK`, so that
# the spine walk of `write` splits it into blocks; its items nest no further,
# which keeps the documents small
_long = st.tuples(st.lists(_scalars | _pooled_lists | st.dictionaries(_key_pool, _scalars, max_size=3),
                           min_size=1, max_size=3),
                  st.integers(_B - 1, 2 * _B + 1)).map(lambda t: (t[0] * t[1])[:t[1]])


_docs = st.recursive(_scalars | _pooled_lists, lambda inner: (
    st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_text, inner | _long | _long.map(tuple), min_size=1, max_size=3)
    | st.lists(inner, max_size=5).map(_List) | st.tuples(inner, inner).map(lambda t: _Record(*t))
    | st.dictionaries(_text, inner, max_size=5) | st.dictionaries(_text, inner, max_size=3).map(_Dict)
    | st.lists(st.dictionaries(_key_pool, inner, max_size=3), max_size=6)
    | st.lists(st.dictionaries(_number_keys, inner, max_size=2), max_size=4)), max_leaves=30)
# documents whose top is a dict, as every cohomrep document's is
_docs |= st.dictionaries(_text, _docs | _long, min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(_docs)
def test_dumps_is_the_json_text(doc):
    text = ser.dumps(doc)
    assert text == _json_oracle(doc)
    parts = []
    ser.write(doc, parts.append)
    assert "".join(parts) == text


def _rows_across_a_block(n):
    # two row shapes alternate, so both sit on either side of a block boundary
    return [{"a": i, "%": [i, {}]} if i % 2 else {"a": None, "b": [[i]], "c": "x"} for i in range(n)]


def _mixed(n):
    # items of every batch type, in a cycle that does not divide `_BLOCK`
    cycle = [1, "s", None, 2.5, True, [1, "x"], {"a": [2]}, (3,), {}, []]
    return [cycle[i % len(cycle)] for i in range(n)]


class _Wide(NamedTuple("_Wide", [(f"f{i}", int) for i in range(_B + 3)])):
    pass


@pytest.mark.parametrize("doc", [
    # the spine walk of `write`: dicts with exact str keys and exact lists
    # and tuples longer than `_BLOCK` on the way down, in parts
    {"a": _mixed(_B), "b": _mixed(_B + 1), "c": _mixed(2 * _B + 1)},
    _mixed(2 * _B + 3), tuple(_mixed(_B + 1)), {"x": {"y": tuple(_mixed(_B + 2)), "z": [_mixed(_B + 1)]}},
    {"a": {}, "b": [], "c": {"d": {}, "e": [[]], "f": ()}}, [{}] * (_B + 1), [[]] * (2 * _B),
    {"x": {1: "a", 2.5: _mixed(_B + 1)}}, [{True: 1}] * (_B + 1), {"x": _Dict(b=_mixed(_B + 1))},
    {"lam": pt.as_partition([1] * (_B + 44))}, [pt.as_partition([2] * (_B + 1))] * 3,
    _Wide(*range(_B + 3)), {"w": [_Wide(*range(_B + 3))]}, _List(_mixed(_B + 1)),
    {}, [], (), [[], {}], {"a": [(), {}]}, {"\u00e9\x00\n": [1, 2, 3]}, [True, 1, False, 0],
    [1, 2.0], {"x": [np.float64("nan"), np.float64(-0.0)]}, {1: "a", 2: "b"}, {2.5: 1, -1.0: 2},
    [{"%s": 1, "%": "%d"}, {'"{x}"': [{}]}], [{1: "a"}, {1.0: "b"}, {True: "c"}, {None: "d"}],
    [_Str("s"), _Int(7), _Float(0.5), _List([1]), _Dict(b=1, a=2), _Record(1, [2])],
    [{"a": 1}, [1, "x"], 2, "y", None, {"a": [3]}, [], True],
    [{"a": 1}, {}, {"a": 2}, {}],
    list(range(_B - 1)), list(range(_B)), list(range(_B + 1)),
    _rows_across_a_block(_B - 1), _rows_across_a_block(_B), _rows_across_a_block(_B + 1),
    [_rows_across_a_block(_B + 1), _rows_across_a_block(3)],
    # batches of exact-int lists, written from one `%d` template per length
    [[1, 2], [3], [], [4, 5]], [[True, 1], [1, True]], [(1, 2), [3, 4]], [[_Int(1), 2]],
    [[-0, 10**30]], [list(range(i % 4)) for i in range(_B)], [list(range(i % 4)) for i in range(_B + 1)],
    # equal lists of exact ints and strs, written once per batch; equal
    # lists with a bool, a float or a subclass among their items print apart
    [[1, True], [1, 1], [True, 1]], [[1.0], [1]], [[0.0], [-0.0]], [["1"], [1]], [[_Int(1)], [1]],
    [["U", 1, 1], ["U", 1, 1], ["U", 1, 2]], [[], [], [[]], [], ()], [[] for _ in range(_B + 1)],
    [[i % 3] for i in range(_B + 5)], [["U", i % 3, 1] for i in range(2 * _B + 1)],
    [[[i % 2, "x"]] for i in range(_B - 2, _B + 2)],
])
def test_dumps_edge_cases(doc):
    assert ser.dumps(doc) == _json_oracle(doc)


def test_list_and_tuple_subclasses_are_written_in_batch(monkeypatch):
    # json writes every list and tuple subclass as an array, so the batches
    # of lists take them: the checked partitions of a catalog, NamedTuples
    def fallback(v, nl):
        raise AssertionError(f"{type(v).__name__} reached the json fallback")

    monkeypatch.setattr(ser, "_stdlib", fallback)
    lam, mu = pt.enumerate_compatible(pt.BoxContext(2, 2))[4][:2]
    assert type(lam) is pt._Checked and type(mu) is pt._Checked
    for doc in ([lam, mu, (2, 1), [2, 1], lam], {"lam": lam, "mu": mu}, [{"lam": lam}, {"lam": (1,)}],
                [_List([lam, 1]), _Record(lam, [mu]), ()], [pt.as_partition([])]):
        assert ser.dumps(doc) == _json_oracle(doc)


def test_checked_plain_and_list_partitions_are_written_alike():
    # each batch keys its dedup by the tuples themselves and by tuple copies
    # of lists: a checked partition and an equal plain tuple or list print
    # the same array, in a list and in a dict column
    lam, mu, empty = pt.as_partition([2, 1]), pt.as_partition([3, 3]), pt.as_partition([])
    mixed = [lam, (2, 1), [2, 1], mu, [3, 3], (3, 3), empty, (), [], lam, ["U", 2, 1], ("U", 2, 1)]
    rows = [{"lam": x, "mu": y} for x, y in zip(mixed, reversed(mixed))]
    for doc in (mixed, rows, [mixed, rows], mixed * (_B // 4 + 1)):
        assert ser.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_import_loads_no_other_cohomrep_module():
    # a fresh interpreter, so no earlier import counts
    code = "import sys, cohomrep.serialize\nprint(sorted(m for m in sys.modules if 'cohomrep' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['cohomrep', 'cohomrep.serialize']\n"


def test_dumps_rejects_an_int_past_the_digit_limit_as_json_does():
    with pytest.raises(ValueError):
        _json_oracle([[10**5000]])
    with pytest.raises(ValueError):
        ser.dumps([[10**5000]])


def _nested(depth):
    doc = []
    for _ in range(depth - 1):
        doc = [doc]
    return doc


def _dict_chain(depth):
    doc = {}
    for _ in range(depth - 1):
        doc = {"a": doc}
    return doc


def test_nesting_depth_limit():
    # the batch writer spends a few frames per level, so it reaches fewer
    # levels of lists than json's encoder; the spine walk spends one frame
    # per dict (see README); cohomrep documents nest five deep
    for doc in (_nested(200), _dict_chain(200), _dict_chain(600)):
        assert ser.dumps(doc) == _json_oracle(doc)
    for doc in (_nested(2000), _dict_chain(2000)):
        with pytest.raises(RecursionError):
            _json_oracle(doc)
        with pytest.raises(RecursionError):
            ser.dumps(doc)
        with pytest.raises(RecursionError):
            ser.write(doc, lambda part: None)


def test_dumps_writes_every_small_catalog_as_json_does():
    # the documents `cohomrep catalog --format json` prints, for the boxes
    # with U p*q <= 12 and O p*q <= 20, plus U(4,4)
    boxes = ([("U", p, q) for p in range(1, 13) for q in range(p, 13) if p * q <= 12]
             + [("O", p, q) for p in range(1, 21) for q in range(p, 21) if p * q <= 20]
             + [("U", 4, 4)])
    assert len(boxes) == 55
    for kind, p, q in boxes:
        rows = [dict(ser.module_to_json(m), provenance="computed") for m in vz.catalog(kind, p, q)]
        doc = ser.document(rows, command="catalog", kind=kind, p=p, q=q)
        assert ser.dumps(doc) == _json_oracle(doc), (kind, p, q)


def _catalog_document(kind, p, q):
    rows = [dict(ser.module_to_json(m), provenance="computed") for m in vz.catalog(kind, p, q)]
    return ser.document(rows, command="catalog", kind=kind, p=p, q=q)


def test_dumps_peaks_at_about_twice_its_text():
    # the parts `write` makes and their join: one text per nesting level
    # peaked at 3.3x
    doc = _catalog_document("O", 6, 7)
    text = ser.dumps(doc)
    tracemalloc.start()
    try:
        assert ser.dumps(doc) == text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(text), peak / len(text)


def test_write_passes_the_catalog_in_small_parts():
    doc = _catalog_document("U", 5, 5)
    parts = []
    ser.write(doc, parts.append)
    text = "".join(parts)
    assert text == ser.dumps(doc) and len(text) > 4_000_000
    assert max(map(len, parts)) <= len(text) / 8


#: the benchmark's recorded outputs, read only
BENCH_REFERENCES = pathlib.Path(__file__).resolve().parents[1] / "bench" / "references.json"


def test_catalog_sweep_documents_match_the_benchmark_references():
    # [module count, sha256 of the json document] of every catalog-sweep box,
    # built as the benchmark builds them; its isolated count is the
    # benchmark's own check
    refs = json.loads(BENCH_REFERENCES.read_text())["catalog-sweep"]
    assert len(refs) == 133
    for key, want in refs.items():
        kind, p, q = re.fullmatch(r"([UO])\((\d+),(\d+)\)", key).groups()
        p, q = int(p), int(q)
        mods = vz.catalog(kind, p, q)
        rows = [dict(ser.module_to_json(m), provenance="computed") for m in mods]
        doc = ser.dumps(ser.document(rows, command="catalog", kind=kind, p=p, q=q))
        assert [len(mods), hashlib.sha256(doc.encode()).hexdigest()] == want[:2], key


def test_dumps_rejects_what_json_rejects():
    for bad in ({1, 2}, {"a": [1, {2}]}, {(1, 2): 0}, np.int64(3)):
        with pytest.raises(TypeError):
            _json_oracle(bad)
        with pytest.raises(TypeError):
            ser.dumps(bad)
