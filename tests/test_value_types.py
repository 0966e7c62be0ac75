"""The plain frozen value types are slotted.

A result object that holds nothing but its declared fields carries no
per-instance __dict__.  Four frozen dataclasses keep one, because they
store derived attributes in it (object.__setattr__ in __post_init__, or
core.cached): Alphabet, VertexShift, OneBlockCode and SlidingBlockCode.
Slotting changes nothing a caller sees, so every slotted type survives
pickle (worker processes of `verify --jobs`), deepcopy and
dataclasses.replace with its equality and hash.
"""
import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import sftcd
from sftcd.bridge import bounded_bridge_exists, construct_bridge, fixed_point_class_oracle
from sftcd.codes import check_onto
from sftcd.core import PeriodicPoint, parse_block_text
from sftcd.corpus import additive_recoding
from sftcd.depth import class_degree, depth, is_presented, relative_is_presented
from sftcd.documents import load_triple_doc, to_jsonable, triple_doc
from sftcd.fiber import find_magic_block, preimage_blocks
from sftcd.harness import (
    HarnessCase,
    SuiteSummary,
    check_main_identity,
    spec_for_seed,
)

WITH_DICT = {"Alphabet", "VertexShift", "OneBlockCode", "SlidingBlockCode"}


def frozen_dataclasses():
    """Every frozen dataclass defined in a module of the package, by name."""
    found = {}
    for info in pkgutil.iter_modules(sftcd.__path__):
        module = importlib.import_module(f"sftcd.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
            ):
                found[value.__name__] = value
    return found


@pytest.fixture(scope="module")
def instances(xor2):
    """One instance of each slotted type, as the library returns it."""
    w = parse_block_text(xor2.Y.alphabet, "00000")
    cert = relative_is_presented(xor2, w, frozenset({"00"}), 3)
    x, xp = PeriodicPoint.make(("00",)), PeriodicPoint.make(("11",))
    witness, _ = construct_bridge(xor2, x, xp, 1, cert, "00")
    magic = find_magic_block(xor2.phi)
    report = check_main_identity(xor2, case_id="builtin:xor2/main")
    spec = spec_for_seed(7)
    return [
        witness,
        bounded_bridge_exists(xor2.pi, x, xp, 0),
        fixed_point_class_oracle(xor2.phi, "0"),
        additive_recoding(2),
        check_onto(xor2.phi, xor2.Y),
        xor2,
        w,
        x,
        cert,
        is_presented(xor2.phi, w, (), 3),
        depth(xor2.phi, w),
        class_degree(xor2.phi),
        load_triple_doc(triple_doc(xor2)),
        preimage_blocks(xor2.phi, w),
        magic.certified,
        magic,
        spec,
        report.checks[0],
        report,
        HarnessCase("seed:7", "generated", gen=spec, checks=("main", "chain"), chain_seed=7),
        SuiteSummary((report,)),
    ]


def test_every_plain_frozen_value_type_is_slotted(instances):
    found = frozen_dataclasses()
    assert WITH_DICT <= set(found)
    slotted = {name for name, cls in found.items() if "__slots__" in vars(cls)}
    assert slotted == set(found) - WITH_DICT
    assert {type(x).__name__ for x in instances} == slotted
    for x in instances:
        assert not hasattr(x, "__dict__"), type(x).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, dataclasses.fields(x)[0].name, None)
        # a new name: the frozen __setattr__ of Python 3.10 and 3.11 raises
        # TypeError on a slotted class, as it calls super() with the class
        # it was made for, which slots=True replaces
        with pytest.raises((AttributeError, TypeError)):
            x.extra = 1
        # past the frozen __setattr__, there is no room for a new name
        with pytest.raises(AttributeError):
            object.__setattr__(x, "extra", 1)


@pytest.mark.parametrize(
    "make_copy",
    [
        lambda x: pickle.loads(pickle.dumps(x)),
        copy.deepcopy,
        dataclasses.replace,
    ],
    ids=["pickle", "deepcopy", "replace"],
)
def test_slotted_values_round_trip(instances, make_copy):
    for x in instances:
        y = make_copy(x)
        name = type(x).__name__
        assert type(y) is type(x) and y is not x, name
        if name in ("TheoremReport", "SuiteSummary"):
            # a report compares by identity (eq=False), and a summary
            # through its reports: compare what they print
            assert to_jsonable(y) == to_jsonable(x), name
            continue
        assert y == x, name
        try:
            expected = hash(x)
        except TypeError:  # LoadedTriple holds a dict
            continue
        assert hash(y) == expected, name
