"""Every frozen record against a frozen dataclass twin built from its own fields, as the oracle.

``dynamics.Record`` stands in for ``@dataclass(frozen=True)``, so each record class is checked against
``dataclasses.make_dataclass(..., frozen=True)`` with the same fields, defaults and ``__post_init__``: the same
repr, equality exactly when the twin's holds, equal hashes for equal records, no assignment or deletion, and the
same validation (or its absence) for every drawn set of field values.
"""

import dataclasses
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ionblimp.buoyancy  # noqa: F401  (each module that declares records is loaded, so every record is listed)
import ionblimp.frames  # noqa: F401
import ionblimp.inner_loop  # noqa: F401
import ionblimp.thruster  # noqa: F401
from ionblimp.dynamics import BodyState, Record
from ionblimp.inner_loop import InnerLoopConfig
from ionblimp.smc import ReferenceTrajectory, SmcGains

GAINS = SmcGains(c1=1.0, c2=1.0, epsilon=0.05, k=1.0)
REFERENCE = ReferenceTrajectory(times=(0.0, 1.0), poses=((0, 0, 0), (1, 0, 0.5)))
EYE, SHEAR = np.eye(4), np.array([[1.0, 0.5], [0.0, 1.0]])
GAS = {"ion_mass": 4.65e-26, "neutral_mass": 4.65e-26, "temperature": 300.0, "ion_charge": 1.602176634e-19,
       "cross_section": 1e-19, "ion_density": 1e15, "neutral_density": 2.5e25}

# Each record class, by name, and field values it is built from: each field draws its class default or a value an
# example gives it, so a draw may also mix examples into values the class refuses. -0.0, ints and unwrapped
# angles are stored as other values; tuples, lists and arrays make records that are or are not hashable.
EXAMPLES = {
    "AirshipParams": [{}, {"mass": 1, "inertia_x": 0.5, "inertia_z": 0.5, "inertia_xz": 0.1, "yaw_damping": 0,
                           "net_lift": -0.0, "lift_slope": 2.0}],
    "BodyState": [{}, {"u": 1, "v": -0.0, "phi": 4.0, "psi": -3.5, "h": 2.0}],
    "ThrusterCommand": [{}, {"thrust": 0.05, "yaw_deflection": 1, "pitch_deflection": -0.0}],
    "OpenLoopCommand": [{}, {"thrust": 0.1, "delta_y": 0.2}, {"throttle": 0.5},
                        {"script": ((0, 0.1, 0, 0), (1.0, 0.0, 0.2, 0.0))}],
    "SmcScenarioConfig": [{"gains": GAINS, "reference": REFERENCE},
                          {"gains": SmcGains(c1=2.0, c2=0.5, epsilon=0.0, k=3), "t_max": 0.1, "cg_x": -0.0}],
    "Scenario": [{}, {"model": "full", "duration": 1, "dt": 0.01, "seed": 3, "gimbal_noise": 0.1,
                      "initial": BodyState(u=0.1), "csv_path": "run.csv"},
                 {"controller": "inner_loop", "inner_loop": InnerLoopConfig(0.3, 0.01, 0.5)}],
    "SimResult": [{"records": (), "summary": ()}, {"records": [1.0], "summary": {"steps": 1}}],
    "LinearModel": [{"a": EYE, "b": EYE[:, :3]}, {"a": (1.0, 2.0), "b": ()}],
    "InnerLoopConfig": [{"trim_speed": 0.3, "trim_thrust": 0.01, "k_u": 0.5},
                        {"trim_speed": 1, "trim_thrust": 0.02, "k_w": -0.0, "k1": 2.0, "k2": 1.0}],
    "LyapunovCertificate": [{"m": SHEAR, "residual": 1e-12, "min_eigenvalue": 0.5},
                            {"m": ((1.0, 0.0), (0.0, 1.0)), "residual": 0.0, "min_eigenvalue": -1}],
    "FirstOrderTf": [{"gain": 3.358, "pole": 0.0575}, {"gain": 1, "pole": -0.0}],
    "SmcModel": [{"mass_matrix": ((1, 0, 0), (0, 1, 0), (0, 0, 1)), "aero_matrix": ((0, 0, 0),) * 3},
                 {"mass_matrix": ((2.0, 0, 0.1), (0, 2.0, 0), (0.1, 0, 0.5)),
                  "aero_matrix": ((0, 0, 0), (0, 0, 0), (0, 0, -0.005))}],
    "SmcGains": [{"c1": 1.0, "c2": 1.0, "epsilon": 0.05, "k": 1.0},
                 {"c1": 2, "c2": -0.5, "epsilon": 0.0, "k": 3.0, "boundary_layer": 0.1}],
    "ReferenceTrajectory": [{"times": (0.0, 1.0), "poses": ((0, 0, 0), (1, 0, 0.5))},
                            {"times": [0, 2.0], "poses": [[0, 0, 3.1], [0, 0, -3.1]]}],
    "GasIonParams": [GAS, {**GAS, "temperature": 250, "ion_density": 2e15}],
    "ThrusterGeometry": [{"electrode_gap": 0.03, "dry_mass": 0.02}, {"electrode_gap": 0.025, "dry_mass": 1}],
    "ThrustMap": [{"inputs": (0.0, 1.0), "thrust_grams": (0.0, 1.0)},
                  {"inputs": (0.2, 0.5, 1), "thrust_grams": (0, 0.3, 1.2)}],
    "EnvelopeGeometry": [{"semi_axis_a": 0.985, "semi_axis_b": 0.255, "semi_axis_c": 0.255},
                         {"semi_axis_a": 1, "semi_axis_b": 0.3, "semi_axis_c": 0.2, "envelope_mass": 0.01}],
    "LiftBudget": [{"volume_m3": 0.27, "gross_lift_kg": 0.3, "net_lift_kg": 0.29},
                   {"volume_m3": 1, "gross_lift_kg": -0.0, "net_lift_kg": 0.0}],
    "FlowAngles": [{}, {"alpha": 0.1, "beta": -0.2}],
}
# Values a field may be given instead, one field per draw: each is refused by some __post_init__ and stored as
# it is by a record without one.
BAD = (float("inf"), -1.0, 2, "1", None, ((0.0,), (1.0, 2.0)))
RECORDS = sorted((cls for cls in Record.__subclasses__() if cls.__module__.startswith("ionblimp.")),
                 key=lambda cls: cls.__name__)


def _twin(cls):
    """The frozen dataclass with cls's fields, defaults and __post_init__ (which reads _fields)."""
    spec = [(n, cls.__annotations__[n], dataclasses.field(default=vars(cls)[n])) if n in vars(cls)
            else (n, cls.__annotations__[n]) for n in cls._fields]
    namespace = {"_fields": cls._fields}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def _double(cls):
    """A record class with cls's fields and defaults but no __post_init__: equal fields, another class."""
    return type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__),
                                          **{n: vars(cls)[n] for n in cls._fields if n in vars(cls)}})


TWINS = {cls: _twin(cls) for cls in RECORDS}
DOUBLES = {cls: _double(cls) for cls in RECORDS}


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return "returned", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001  (every refusal is compared with the twin's)
        return "raised", type(exc), str(exc)


def _same(got, want) -> bool:
    """Both returned alike or both raised the same type with the same message."""
    if got[0] != want[0]:
        return False
    return got == want if got[0] == "raised" else _outcome(operator.eq, got[1], want[1]) == ("returned", True)


@st.composite
def _values(draw, cls):
    """Field values for cls: each from its pool, and at most one replaced by a BAD value."""
    examples = EXAMPLES[cls.__name__]
    pools = {n: [*([vars(cls)[n]] if n in vars(cls) else []), *(e[n] for e in examples if n in e)]
             for n in cls._fields}
    values = {n: draw(st.sampled_from(pool)) for n, pool in pools.items()}
    if draw(st.integers(0, 3)) == 0:
        values[draw(st.sampled_from(cls._fields))] = draw(st.sampled_from(BAD))
    return values


def test_every_record_class_has_examples_and_fields():
    assert {cls.__name__ for cls in RECORDS} == set(EXAMPLES)
    for cls in RECORDS:
        assert cls._fields == tuple(f.name for f in dataclasses.fields(TWINS[cls])) != ()


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls, data):
    twin = TWINS[cls]
    values, other = data.draw(_values(cls)), data.draw(_values(cls))
    # __post_init__ runs: a record refuses exactly the values its twin refuses, with the same error.
    built, twin_built = _outcome(cls, **values), _outcome(twin, **values)
    assert built[0] == twin_built[0] and (built[0] == "returned" or built[1:] == twin_built[1:])
    if built[0] == "raised":
        return
    record, twin_record = built[1], twin_built[1]
    assert repr(record) == repr(twin_record)
    assert _same(_outcome(record._astuple), _outcome(lambda: tuple(getattr(twin_record, n) for n in cls._fields)))
    # == holds exactly when the twin's does (or raises as the twin's does, for array fields), and never across
    # classes: not with the twin, nor with a record of another class holding the same fields.
    for changed in (values, {**values, **other}, {**other, **values}):
        second, twin_second = _outcome(cls, **changed), _outcome(twin, **changed)
        if second[0] == "returned":
            assert _same(_outcome(operator.eq, record, second[1]), _outcome(operator.eq, twin_record, twin_second[1]))
            assert _same(_outcome(operator.ne, record, second[1]), _outcome(operator.ne, twin_record, twin_second[1]))
            if _outcome(operator.eq, record, second[1]) == ("returned", True):
                assert _outcome(hash, record) == _outcome(hash, second[1])  # equal, or the same refusal
    assert (record == twin_record) is False and (record != twin_record) is True
    double = DOUBLES[cls](**dict(zip(cls._fields, record._astuple())))
    assert (record == double) is False and (double == record) is False
    # The hash is the twin's, a hash over the fields (or the same refusal when a field is unhashable).
    assert _outcome(hash, record) == _outcome(hash, twin_record)
    # A record is frozen: no field, nor any other name, can be set or deleted, and a failed try changes nothing.
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == repr(twin_record)


def test_a_record_refuses_assignment_and_deletion_as_a_frozen_dataclass_words_it():
    state = BodyState()
    with pytest.raises(AttributeError, match="^cannot assign to field 'u'$"):
        state.u = 1.0
    with pytest.raises(AttributeError, match="^cannot delete field 'u'$"):
        del state.u


def test_a_record_init_is_named_after_its_class():
    # A wrong keyword is a TypeError that names the class, as for a dataclass.
    with pytest.raises(TypeError, match=r"^BodyState\.__init__\(\) got an unexpected keyword argument 'z'$"):
        BodyState(z=1.0)
    with pytest.raises(TypeError, match=r"^SmcGains\.__init__\(\) missing 1 required positional argument: 'k'$"):
        SmcGains(c1=1.0, c2=1.0, epsilon=0.0)
