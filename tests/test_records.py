"""The record types are NamedTuples that keep the contract of the frozen
dataclasses they replaced: the same constructor, repr text, field equality
and hash, read-only fields and constructor checks.  One documented change:
a record now also equals the plain tuple of its fields."""

import json

import pytest

from cohomrep import closedforms as cf, config, isolation as iso, lefschetz as lef, rootdata as rd
from cohomrep import vz_catalog as vz
from cohomrep import serialize as ser
from cohomrep.partitions import BoxContext, OrthoPartition, enumerate_compatible

# one record of each type, with the repr its dataclass printed
REPRS = [
    (lambda: BoxContext(2, 3), "BoxContext(p=2, q=3)"),
    (lambda: enumerate_compatible(BoxContext(2, 3))[1],
     "CompatiblePair(lam=(), mu=(1,), ctx=BoxContext(p=2, q=3), rects=((1, 1),))"),
    (lambda: OrthoPartition((2, 2), BoxContext(3, 4), ((1, 2),), None, "even", 2),
     "OrthoPartition(lam=(2, 2), ctx=BoxContext(p=3, q=4), pairs=((1, 2),), central=None,"
     " parity='even', even_type=2)"),
    (lambda: vz.Weight((-1, -2), (1, 2), "U"), "Weight(xs=(-1, -2), ys=(1, 2), conv='U')"),
    (lambda: vz.catalog("U", 2, 2)[1],
     "VZModule(kind='U', p=2, q=2, lam=(), mu=(1,), sign1=None, sign2=None, degree=3,"
     " levi=(('U', 1, 1),), lowest_ktype=Weight(xs=(-1, -2), ys=(1, 2), conv='U'),"
     " discrete_series=False, holomorphic=False, o_group_extension=False,"
     " pair=CompatiblePair(lam=(), mu=(1,), ctx=BoxContext(p=2, q=2), rects=((1, 1),)))"),
    (lambda: iso.min_degree_nonisolated("O", 3, 4),
     "DegreeThreshold(kind='O', p=3, q=4, rank=3, bound=4, witness=(3, 1),"
     " note='bound p+q-3, witness (q-1, 1^(p-2))')"),
    (lambda: lef.parse_group("O:3,4"), "Group(kind='O', p=3, q=4)"),
    (lambda: lef.restriction_verdict(lef.parse_group("O:3,4"), degree=3),
     "Verdict(status='guaranteed', anchor='Thm opq', threshold='k <= p+q-4: 3 <= 3',"
     " target_component=None, qualifier=None, criterion_value=None)"),
    (lambda: cf.l2_cup_threshold(2, 5, 1),
     "L2CupThresholds(p=2, q=5, r=1, iso_max_degree=2, iso_range='k < (q+pr-1)/2 = 6/2',"
     " middle_injective=None, anchor='Thm cohom l2')"),
    (lambda: config.Config(),
     "Config(enum_cap=42, mc_samples=1000000, mc_batches=16, seed=0, fd_step=0.0001, format='json')"),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_equality_and_hash(make, text):
    rec = make()
    assert repr(rec) == text
    fields = tuple(getattr(rec, name) for name in rec._fields)
    # rebuilt from its fields, a record is equal and hashes alike; a frozen
    # dataclass hashed the tuple of its fields too
    assert type(rec)(*fields) == rec and hash(type(rec)(*fields)) == hash(rec) == hash(fields)
    # the documented change: a record equals the plain tuple of its fields
    assert rec == fields
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)


def test_root_system_record():
    rs = rd.root_system("U", 2, 3)
    assert repr(rs).startswith("RootSystemData(kind='U', p=2, q=3, noncompact_pairs=")
    assert rs.rho2 == rs.rho_c2 + rs.rho_n2


def test_fields_differ_records_differ():
    assert BoxContext(2, 3) != BoxContext(3, 2)
    assert vz.Weight((1,), (0,), "U") != vz.Weight((1,), (0,), "O-odd-odd")
    assert {BoxContext(2, 3), BoxContext(2, 3)} == {BoxContext(2, 3)}


def test_constructor_checks_remain():
    with pytest.raises(ValueError, match="box dimensions must be positive"):
        BoxContext(0, 1)
    with pytest.raises(ValueError, match="unknown anchor"):
        lef.Verdict(lef.GUARANTEED, "Thm nowhere", "k < 1")
    with pytest.raises(ValueError, match="unknown status"):
        lef.Verdict("maybe", "Thm opq", "k < 1")
    # a not-covered row needs no anchor from the table
    assert lef.Verdict(lef.NOT_COVERED, "", "none").citation == ""


def test_methods_and_properties_remain():
    w = vz.Weight((1, 2), (0,), "U")
    assert w + w == vz.Weight((2, 4), (0,), "U") and w - w == vz.Weight((0, 0), (0,), "U")
    assert str(lef.parse_group("U:2,3")) == "U(2,3)"
    assert lef.restriction_verdict(lef.parse_group("O:3,4"), degree=3).citation == lef.CITATIONS["Thm opq"]
    assert config.Config(format="md").validate().format == "md"
    with pytest.raises(ValueError):
        config.Config(enum_cap=0).validate()


def test_dumps_writes_a_record_as_an_array():
    # as json.dumps does for any tuple
    doc = {"box": BoxContext(2, 3), "verdict": lef.restriction_verdict(lef.parse_group("O:3,4"), degree=3)}
    assert ser.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert json.loads(ser.dumps(doc))["box"] == [2, 3]
