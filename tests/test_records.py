"""The value types: their contract, pickling and copying, and start-up cost."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from clutters.core import Clutter, MinorSpec, Separation, _Record
from clutters.enumeration import CheckResult, VerificationReport, _Removal
from clutters.graphview import IncidenceGraph, Neighbourhood
from clutters.matroid import CircuitMatroid
from clutters.splitter import SplitterChain, SplitterStep

F = frozenset

SRC = Path(__file__).resolve().parent.parent / "src"

_STEP = SplitterStep("b", "contract", Clutter(F(), F({F()})))
_RESULT = CheckResult("x", 3, 2, ("line",))

# (class, its fields in order with sample values, the repr of that value);
# the reprs are those of the dataclass versions these classes replaced, and
# the values keep them independent of string hashing
CASES = [
    (
        Clutter,
        {"ground": F({"a", "b"}), "rows": F({F({"a"}), F({"b"})})},
        "Clutter([a b] {a}, {b})",
    ),
    (
        Separation,
        {"left": F({"a"}), "right": F({"b"})},
        "Separation(left=frozenset({'a'}), right=frozenset({'b'}))",
    ),
    (
        MinorSpec,
        {"deletes": F({"a"}), "contracts": F({"b", "c"})},
        "MinorSpec(deletes a, contracts b c)",
    ),
    (
        CheckResult,
        {"name": "x", "tested": 3, "passed": 2, "counterexamples": ("line",)},
        "CheckResult(name='x', tested=3, passed=2, counterexamples=('line',))",
    ),
    (
        VerificationReport,
        {"results": (_RESULT,)},
        "VerificationReport(results=(CheckResult(name='x', tested=3, passed=2, "
        "counterexamples=('line',)),))",
    ),
    (
        IncidenceGraph,
        {"black": F({"a"}), "white": F({"r:a"}), "edges": F({("a", "r:a")})},
        "IncidenceGraph(black=frozenset({'a'}), white=frozenset({'r:a'}), "
        "edges=frozenset({('a', 'r:a')}))",
    ),
    (
        Neighbourhood,
        {"center": ("black", "a"), "open": F(), "closed": F({("black", "a")})},
        "Neighbourhood(center=('black', 'a'), open=frozenset(), "
        "closed=frozenset({('black', 'a')}))",
    ),
    (
        CircuitMatroid,
        {"ground": F({"a"}), "circuits": F({F({"a"})})},
        "CircuitMatroid(ground=frozenset({'a'}), circuits=frozenset({frozenset({'a'})}))",
    ),
    (
        SplitterStep,
        {"element": "a", "op": "delete", "result": Clutter(F({"b"}), F({F({"b"})}))},
        "SplitterStep(element='a', op='delete', result=Clutter([b] {b}))",
    ),
    (
        SplitterChain,
        {"start": Clutter(F({"b"}), F({F({"b"})})), "steps": (_STEP,)},
        "SplitterChain(start=Clutter([b] {b}), steps=(SplitterStep(element='b', "
        "op='contract', result=Clutter([] {})),))",
    ),
]

IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_value_contract(cls, fields, text):
    values = tuple(fields.values())
    x = cls(*values)
    assert x == cls(**fields)
    assert x == cls(**dict(reversed(fields.items())))
    names = tuple(fields)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):  # the first field by position and by keyword
        cls(values[0], **fields)
    if len(names) > 1:  # ... and the last missing, so the count of values fits
        with pytest.raises(TypeError):
            cls(*values[:-1], **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    for i in range(len(names) - 1):
        # field i missing, the earlier ones by position, the later by keyword
        with pytest.raises(TypeError):
            cls(*values[:i], **dict(zip(names[i + 1 :], values[i + 1 :])))
    assert tuple(getattr(x, name) for name in fields) == values
    # equal only to a value of the same class: not to another class built
    # from the same fields (Clutter and CircuitMatroid, MinorSpec and
    # Separation, ...), nor to the tuple of its fields
    others = [other for other, f, _ in CASES if other is not cls and len(f) == len(fields)]
    for other in others:
        assert x != other(*values) and other(*values) != x
    assert x != values and values != x
    assert hash(x) == hash(values)
    assert repr(x) == text
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(x, first, values[0])
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        delattr(x, first)
    assert cls.__doc__ and cls.__doc__.strip()


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, text):
    x = cls(**fields)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls
        assert y == x and hash(y) == hash(x) and repr(y) == text


@pytest.mark.parametrize(
    "ground,rows,text",
    [
        (F({"a"}), F(), "Clutter([a])"),
        (F(), F(), "Clutter([])"),
    ],
)
def test_clutter_repr_without_rows(ground, rows, text):
    assert repr(Clutter(ground, rows)) == text


def test_every_record_class_keeps_the_slot_contract():
    # every subclass, _Removal and any later one included, not only CASES
    classes = _Record.__subclasses__()
    assert _Removal in classes and {cls for cls, _, _ in CASES} <= set(classes)
    for cls in classes:
        slots = cls.__slots__
        assert cls._fields == slots
        x = cls(*range(len(cls._fields)))
        assert not hasattr(x, "__dict__")
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(x, name, None)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -I -S: only the package's own imports count, not those of site hooks
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import clutters.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_typing():
    # annotations are not evaluated, so their names come from collections.abc
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import clutters.cli; "
        "print('typing' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
