"""The config reader, the only code that reads a value from a JSON config,
and `Record`, the only JSON writer of a result.

A type is a callable `(value, what)` that returns the checked value or raises
SchemaError.  Nothing is coerced: an integer is a JSON int (not a bool, not
2.0), and a string is never a number.  Imports only numpy and the errors, so
that every module that parses or writes a document can use it.
"""
from __future__ import annotations

import dataclasses
import sys
from typing import Callable, NoReturn

import numpy as np

from .errors import SchemaError

REQUIRED = object()


class Record:
    """A result dataclass written to JSON by field name.

    Arrays and tuples become lists and a nested Record its own document;
    dicts and scalars are written as they are.  A field whose default is None
    is left out while it is None; a required field that is None is null.
    """

    def to_json(self) -> dict:
        return {
            f.name: _json_value(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if not (f.default is None and getattr(self, f.name) is None)
        }


def _json_value(value):
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def _fail(what: str, must: str, value) -> NoReturn:
    raise SchemaError(f"{what} must be {must}, got {repr(value)[:60]}")


def field(doc, key: str, type_: Callable, default=REQUIRED):
    """doc[key] checked by `type_`, or `default` when the key is absent."""
    if not isinstance(doc, dict):
        _fail(f"the value holding {key!r}", "an object", doc)
    if key in doc:
        return type_(doc[key], repr(key))
    if default is REQUIRED:
        raise SchemaError(f"config is missing the required key {key!r}")
    return default


def reads(build: Callable, *fields: tuple) -> Callable:
    """A builder and a type: `build` of the (key, type[, default]) fields of a document."""
    return lambda doc, *_: build(*(field(doc, *spec) for spec in fields))


def dispatch(doc, builders: dict[str, Callable], what: str, *args):
    """builders[doc["kind"]](doc, *args); an unknown kind is a SchemaError."""
    name = field(doc, "kind", text)
    if name not in builders:
        _fail(f"a {what} kind", f"one of {', '.join(builders)}", name)
    return builders[name](doc, *args)


def check(test: Callable, must: str, convert: Callable = lambda v: v) -> Callable:
    """The type of the JSON values that pass `test`, converted by `convert`."""

    def type_(value, what: str):
        if not test(value):
            _fail(what, must, value)
        return convert(value)

    return type_


boolean = check(lambda v: isinstance(v, bool), "true or false")
text = check(lambda v: isinstance(v, str), "a string")
document = check(lambda v: isinstance(v, dict), "an object")
# type() rules out bools; the comparison rules out NaN, infinities and ints beyond float range.
real = check(lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number", float)


def integer(minimum: int) -> Callable:
    return check(lambda v: type(v) is int and v >= minimum, f"an integer >= {minimum}")


def choice(*options: str) -> Callable:
    return check(lambda v: v in options, f"one of {', '.join(options)}")


def list_of(item: Callable) -> Callable:
    as_list = check(lambda v: isinstance(v, list), "a list")
    return lambda value, what: [item(v, f"{what}[{i}]") for i, v in enumerate(as_list(value, what))]


def array(shape: tuple[int | None, ...] | None = None, dtype: type = float) -> Callable:
    """A rectangular nested list of finite numbers as one array, of the rank
    `shape` gives (None: a free extent) or of any rank.  An empty list takes
    the rank of `shape`.  numpy makes bool, str or object arrays of bools,
    strings and null, and unsigned ones of ints >= 2^63: all are rejected."""
    kinds = "if" if dtype is float else "i"
    must = (
        "an array" if shape is None else "a list" if len(shape) == 1
        else f"a {'x'.join(str(s or 'k') for s in shape)} array"
    )

    def type_(value, what: str) -> np.ndarray:
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            _fail(what, f"{must} of {dtype.__name__}s", value)
        if arr.size == 0 and shape is not None:
            return arr.astype(dtype).reshape([s or 0 for s in shape])
        fits = shape is None or (
            arr.ndim == len(shape) and all(s in (None, e) for s, e in zip(shape, arr.shape))
        )
        if not (arr.dtype.kind in kinds and fits and np.all(np.isfinite(arr))):
            _fail(what, f"{must} of finite {dtype.__name__}s", value)
        return arr.astype(dtype)

    return type_


vector = array((None,))
matrix = array((None, None))


def floats(value, what: str) -> tuple[float, ...]:
    """A vector as a tuple of Python floats."""
    return tuple(vector(value, what).tolist())
