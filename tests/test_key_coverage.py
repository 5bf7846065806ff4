"""Content keys cover every field they are built from.

``kernel_fingerprint`` hashes ``repr(kernel.loop)`` and ``machine_key``
is a JSON encoding of ``MachineConfig.to_dict()``.  A key that skipped a
field would make two different kernels or machines share cached
products.  The kernel side is safe as long as every dataclass reachable
from ``Kernel.loop`` uses the generated ``__repr__`` over all of its
fields; the machine side as long as ``to_dict`` names every field and
round-trips through ``from_dict``.
"""

import dataclasses
import inspect
import typing

import pytest

from repro.ir.builder import Kernel
from repro.ir.loop import Loop, LoopDim
from repro.ir.operations import Operation
from repro.ir.references import AffineExpr, Array, ArrayReference
from repro.machine import BusConfig
from repro.machine.config import (
    CacheConfig,
    ClusterConfig,
    MachineConfig,
)
from repro.machine.presets import ALL_PRESETS


def _reachable_dataclasses(root):
    """Every dataclass reachable from ``root`` through field annotations."""
    seen = []
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.append(cls)
        for hint in typing.get_type_hints(cls).values():
            stack = [hint]
            while stack:
                tp = stack.pop()
                stack.extend(typing.get_args(tp))
                if isinstance(tp, type) and dataclasses.is_dataclass(tp):
                    pending.append(tp)
    return seen


_LOOP_CLASSES = _reachable_dataclasses(
    typing.get_type_hints(Kernel)["loop"]
)


def test_walk_reaches_the_loop_classes():
    expected = {Loop, LoopDim, Operation, ArrayReference, Array, AffineExpr}
    assert expected <= set(_LOOP_CLASSES)


@pytest.mark.parametrize("cls", _LOOP_CLASSES, ids=lambda c: c.__name__)
def test_every_field_is_in_repr(cls):
    hidden = [f.name for f in dataclasses.fields(cls) if not f.repr]
    assert not hidden, f"{cls.__name__} hides {hidden} from repr"


@pytest.mark.parametrize("cls", _LOOP_CLASSES, ids=lambda c: c.__name__)
def test_repr_is_dataclass_generated(cls):
    assert cls.__dataclass_params__.repr, cls.__name__
    # dataclasses compiles its __repr__ from a string (and wraps it in
    # a recursion guard); a __repr__ written in (or inherited from) a
    # module would carry that module's file name.
    code = inspect.unwrap(cls.__repr__).__code__
    assert code.co_filename == "<string>", (
        f"{cls.__name__} defines a custom __repr__"
    )


def _machines():
    for factory in ALL_PRESETS.values():
        base = factory()
        yield base
        yield base.with_buses(BusConfig(None, 3), BusConfig(2, 5))


@pytest.mark.parametrize("machine", list(_machines()), ids=str)
def test_machine_dict_round_trip(machine):
    assert MachineConfig.from_dict(machine.to_dict()) == machine


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_machine_dict_names_every_field():
    data = ALL_PRESETS["heterogeneous"]().to_dict()
    assert set(data) == _field_names(MachineConfig)
    assert set(data["clusters"][0]) == _field_names(ClusterConfig)
    assert set(data["clusters"][0]["cache"]) == _field_names(CacheConfig)
    assert set(data["register_bus"]) == _field_names(BusConfig)
    assert set(data["memory_bus"]) == _field_names(BusConfig)
