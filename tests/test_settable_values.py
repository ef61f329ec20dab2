"""The package's settable values: every parameter with a default plus every
dataclass field, over every maecodec module.

A new option needs two callers outside the tests that want different
values.  Pinning the count makes each new one fail here, so that it is
added on purpose and its callers are named where the count is raised.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import maecodec

SETTABLE_VALUES = 69


def _defaults(fn):
    return sum(p.default is not inspect.Parameter.empty
               for p in inspect.signature(fn).parameters.values())


def settable_values():
    """(parameters with a default, dataclass fields) in functions and
    classes defined in the package; the __init__ a dataclass generates
    repeats its fields and is not counted."""
    params = fields = 0
    for info in pkgutil.iter_modules(maecodec.__path__):
        module = importlib.import_module(f"maecodec.{info.name}")
        source = inspect.getfile(module)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    fields += len(dataclasses.fields(obj))
                members = [getattr(m, "__func__", m) for m in vars(obj).values()]
            params += sum(_defaults(m) for m in members
                          if inspect.isfunction(m) and m.__code__.co_filename == source)
    return params, fields


def test_settable_values_are_pinned():
    params, fields = settable_values()
    assert params + fields == SETTABLE_VALUES, (params, fields)
