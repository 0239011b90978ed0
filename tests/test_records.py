"""The package's records: construction, immutability and value semantics.

Every record is a slotted subclass of constants.Record with its own
__init__.  RECORDS holds, per record, a factory of fresh positional
arguments and the defaults of its trailing parameters; a record added to
the package without a row here fails test_every_record_has_a_row.
"""

import cmath
import copy
import inspect
import pickle

import pytest

from mott_ti import (
    DEFAULT_CONSTANTS,
    CollisionSystem,
    CrossSectionCurve,
    HardSphereParams,
    MottParams,
    ParticleSpecies,
    PhaseShiftSet,
    PhysicalConstants,
    PlateauReport,
    Polarization,
    Spin,
    Statistics,
    SweepResult,
    SystemReportRow,
)
from mott_ti.constants import Record
from mott_ti.output import OutputEnvelope


def _mott():
    return MottParams(1.0, 1.5, Spin(0), Polarization.ALIGNED)


def _curve():
    return CrossSectionCurve((45.0, 90.0, 135.0), (3.0, 2.0, 3.0), _mott())


RECORDS = {
    PhysicalConstants: (lambda: (197.3269804, 1.4399645, 931.49410, 938.9187, 1.4),
                        {"hbar_c": 197.3269804, "e_squared": 1.4399645, "amu": 931.49410,
                         "nucleon_mass": 938.9187, "r0": 1.4}),
    Spin: (lambda: (3,), {}),
    ParticleSpecies: (lambda: ("alpha", 2, 3725.9764, Spin(0)), {}),
    CollisionSystem: (lambda: (ParticleSpecies("d", 1, 1862.9882, Spin(2)), 250.0), {}),
    MottParams: (lambda: (1.0, 1.5, Spin(0), Polarization.ALIGNED),
                 {"polarization": Polarization.UNPOLARIZED}),
    PhaseShiftSet: (lambda: (0.5, (-0.5,), (cmath.rect(-0.479425538604203, -0.5),)), {}),
    HardSphereParams: (lambda: (1.4, Spin(1), Statistics.FERMION, Polarization.ALIGNED),
                       {"statistics": None, "polarization": Polarization.UNPOLARIZED}),
    CrossSectionCurve: (lambda: ((45.0, 90.0, 135.0), (3.0, 2.0, 3.0), _mott()), {}),
    PlateauReport: (lambda: (80.0, 100.0, 20.0, 1.5, 2.0), {}),
    SweepResult: (lambda: ((1.3, 1.41, 1.5), (_curve(), _curve(), _curve()),
                           ("min", "flat", "max"), 0.2, -0.15, 0.13), {}),
    SystemReportRow: (lambda: ("alpha", Spin(0), 605.2, 1260.0, 2.1, 2.2, True, 10.1, 25.4,
                               2.3, ""), {}),
    OutputEnvelope: (lambda: ({"command": "demo"}, DEFAULT_CONSTANTS, ["t"], [(1.0,)],
                              {"x": 1.5}),
                     {"columns": (), "rows": (), "scalars": {}}),
}

# records whose fields are all hashable; OutputEnvelope holds dicts
HASHABLE = [cls for cls in RECORDS if cls is not OutputEnvelope]


def ids(cls):
    return cls.__name__


def test_every_record_has_a_row():
    assert set(Record.__subclasses__()) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_init_takes_the_fields_in_slot_order(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls.__slots__
    defaults = {name: p.default for name, p in params.items()
                if p.default is not inspect.Parameter.empty}
    _, expected = RECORDS[cls]
    if cls is OutputEnvelope:
        defaults["scalars"] = {}  # None stands for a fresh empty dict
    assert defaults == expected


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_construction_by_position_and_by_keyword(cls):
    make, _ = RECORDS[cls]
    args = make()
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(cls.__slots__, make())))
    assert [getattr(by_position, name) for name in cls.__slots__] == list(args)
    assert by_position == by_keyword


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_defaults(cls):
    make, defaults = RECORDS[cls]
    required = make()[:len(cls.__slots__) - len(defaults)]
    record = cls(*required)
    if cls is HardSphereParams:
        defaults = {**defaults, "statistics": record.spin.statistics}  # None stores the spin's
    assert {name: getattr(record, name) for name in defaults} == defaults


def test_each_envelope_gets_its_own_scalars():
    a = OutputEnvelope({}, DEFAULT_CONSTANTS)
    b = OutputEnvelope({}, DEFAULT_CONSTANTS)
    assert a.scalars == {} and a.scalars is not b.scalars


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(*RECORDS[cls][0]())
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", HASHABLE, ids=ids)
def test_equal_inputs_give_equal_records_and_hashes(cls):
    make, _ = RECORDS[cls]
    a, b = cls(*make()), cls(*make())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_envelope_is_unhashable():
    with pytest.raises(TypeError):
        hash(OutputEnvelope(*RECORDS[OutputEnvelope][0]()))


def _other(value):
    """A value of the same kind as `value`, unequal to it."""
    if isinstance(value, Polarization):
        return Polarization.UNPOLARIZED if value is Polarization.ALIGNED else Polarization.ALIGNED
    if isinstance(value, Spin):
        return Spin(value.twice_s + 2)
    if isinstance(value, MottParams):
        return MottParams(2 * value.a, value.eta, value.spin)
    if isinstance(value, tuple):
        return value[:-1] + (2 * value[-1],)
    if isinstance(value, str):
        return value + "x"
    return value + 2 if isinstance(value, int) else value * 1.001


@pytest.mark.parametrize("cls", HASHABLE, ids=ids)
def test_a_changed_last_field_breaks_equality(cls):
    # PhaseShiftSet's last field is its weights: they join eq and hash, which
    # changes nothing in practice, as they derive from the deltas
    make, _ = RECORDS[cls]
    args = make()
    assert cls(*args) != cls(*args[:-1], _other(args[-1]))


def test_records_of_different_classes_differ():
    assert Spin(0) != (0,)
    assert Spin(0).__eq__((0,)) is NotImplemented


def test_repr_names_every_field():
    assert repr(Spin(1)) == "Spin(twice_s=1)"
    assert repr(PlateauReport(80.0, 100.0, 20.0, 1.5, 2.0)) == (
        "PlateauReport(theta_lo=80.0, theta_hi=100.0, width=20.0, curvature_90=1.5, "
        "reference_value=2.0)")


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_copy_and_pickle_rebuild_an_equal_record(cls):
    record = cls(*RECORDS[cls][0]())
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_default_constants_fingerprint():
    # the value every golden document prints: a reordered or renamed slot
    # of PhysicalConstants changes it
    assert DEFAULT_CONSTANTS.fingerprint() == "1446ed781204"
