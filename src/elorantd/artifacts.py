"""Serialized model artifacts: one JSON schema family, per-kind payloads.

Artifacts are self-describing (schema + kind + axis metadata) and
deterministic: keys are sorted and floats round-trip exactly through
JSON's shortest-repr formatting, so identical training runs produce
byte-identical files.  Loading checks every field ``models.KINDS`` declares.
write_document and read_document frame every JSON document the program
saves, artifacts and scenario.meta alike.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import read_utf8
from .models import FACTOR, KINDS, Array, Items, ModelKind, Record, Scalar, Table, Text
from .types import factor_set, parse_location_mode

SCHEMA = "elorantd.model/1"
# the fields every kind shares; its payload is declared in models.KINDS
HEADER = Record(dict, {
    "factors": Items("factors", FACTOR),
    "location_mode": Text(parse_location_mode, str),
    "meta": Scalar(dict),
})


def encode(spec, value):
    """Value -> JSON value, as the declared field lays it out."""
    if value is None:
        return None
    if isinstance(spec, Record):
        parts = value if isinstance(value, tuple) else [getattr(value, k) for k in spec.fields]
        out = [encode(s, v) for s, v in zip(spec.fields.values(), parts)]
        return out if spec.as_list else dict(zip(spec.fields, out))
    if isinstance(spec, Items):
        return [encode(spec.item, v) for v in value]
    if isinstance(spec, Array):
        return np.asarray(value).tolist()
    if isinstance(spec, Text):
        return spec.format(value)
    if isinstance(spec, Table):
        return {spec.key.format(k): encode(spec.item, v) for k, v in value.items()}
    return spec.type(value)


def _bind(dims: dict, axis: str, size: int, where: str) -> None:
    if dims.setdefault(axis, size) != size:
        raise ValueError(f"{where}: axis {axis} is {size} here, {dims[axis]} elsewhere")


# a positive field is a normal float: no fit writes less, and a subnormal divisor overflows
_TINY = np.finfo(float).tiny
_SCALAR_NAMES = {float: "finite number", int: "64-bit integer", str: "string",
                 bool: "boolean (true or false)", dict: "JSON object"}


def decode(spec, raw, dims: dict, where: str):
    """JSON value -> value; checks types, finiteness and axes (dims: sizes
    seen) and raises ValueError naming the path (where) of a bad value.
    Keys a Record does not declare are ignored."""
    if isinstance(spec, Record):
        if spec.as_list:
            if not (isinstance(raw, list) and len(raw) == len(spec.fields)):
                raise ValueError(f"{where}: expected a list of {len(spec.fields)} entries")
            raw = dict(zip(spec.fields, raw))
        elif not isinstance(raw, dict):
            raise ValueError(f"{where}: expected an object")
        missing = [k for k in spec.fields if k not in raw]
        if missing:
            raise ValueError(f"{where}: missing {missing[0]!r}")
        parts = {k: decode(s, raw[k], dims, f"{where}.{k}") for k, s in spec.fields.items()}
        try:
            return spec.make(**parts)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    if isinstance(spec, Items):
        if raw is None and spec.optional:
            return None
        if not isinstance(raw, list):
            raise ValueError(f"{where}: expected a list")
        _bind(dims, spec.axis, len(raw), where)
        return tuple(
            decode(spec.item, v, {}, f"{where}[{i}]") for i, v in enumerate(raw)
        )
    if isinstance(spec, Array):
        value = np.asarray(raw, dtype=float)
        if value.ndim != len(spec.axes):
            raise ValueError(f"{where}: shape {value.shape} does not have axes {spec.axes}")
        for axis, size in zip(spec.axes, value.shape):
            _bind(dims, axis, size, where)
        if not np.isfinite(value).all() or (spec.positive and not (value >= _TINY).all()):
            detail = " or non-positive or subnormal" * spec.positive
            raise ValueError(f"{where}: non-finite{detail} value")
        return value
    if isinstance(spec, Text):
        if not isinstance(raw, str):
            raise ValueError(f"{where}: expected a string")
        try:
            return spec.parse(raw)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if isinstance(spec, Table):
        if not isinstance(raw, dict):
            raise ValueError(f"{where}: expected an object")
        out = {decode(spec.key, k, dims, f"{where}.{k}"):
               decode(spec.item, v, dims, f"{where}.{k}") for k, v in raw.items()}
        if len(out) != len(raw):
            raise ValueError(f"{where}: two keys name one entry")
        return out
    if spec.type is float and type(raw) is int and abs(raw) < 1e308:
        raw = float(raw)  # JSON has one number type
    if (type(raw) is not spec.type or (spec.type is float and not math.isfinite(raw))
            or (spec.type is int and not -2 ** 63 <= raw < 2 ** 63)
            or (spec.positive and not raw >= _TINY)):
        raise ValueError(f"{where}: {raw!r} is not a{' positive normal' * spec.positive} "
                         f"{_SCALAR_NAMES[spec.type]}")
    return raw


def model_kind(model) -> ModelKind:
    """The registry entry of a model's class."""
    kind = next((k for k in KINDS.values() if isinstance(model, k.model)), None)
    if kind is None:
        raise DataError(f"cannot serialize model type {type(model).__name__}")
    return kind


def model_document(model) -> dict:
    kind = model_kind(model)
    return {
        "schema": SCHEMA,
        "kind": kind.name,
        **encode(HEADER, model),
        "payload": encode(Record(dict, kind.payload), model),
    }


def write_document(path, doc: dict) -> None:
    """A JSON document as UTF-8 text: sorted keys, two-space indent, one newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_document(path, schema: str, what: str) -> dict:
    """The JSON object at path whose "schema" is schema; a DataError naming the
    file if it is not UTF-8 JSON, not an object, or of another schema (what
    names the document in that fault)."""
    try:
        doc = json.loads(read_utf8(path))
    except (ValueError, RecursionError) as exc:  # also an overlong integer, or deep nesting
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise DataError(f"{path}: unknown {what} schema {found!r}")
    return doc


def save_model(model, path) -> None:
    write_document(path, model_document(model))


def load_model(path):
    doc = read_document(path, SCHEMA, "artifact")
    for key in ("kind", "payload"):  # the header's fields are HEADER's
        if key not in doc:
            raise DataError(f"{path}: artifact missing field {key!r}")
    kind = KINDS.get(doc["kind"]) if isinstance(doc["kind"], str) else None
    if kind is None:
        raise DataError(f"{path}: unknown artifact kind {doc['kind']!r}")
    try:
        header = decode(HEADER, doc, {}, "artifact")
        header["factors"] = factor_set(header["factors"])
    except ValueError as exc:
        raise DataError(f"{path}: malformed artifact header ({exc})") from None
    try:
        return kind.model(
            **decode(Record(dict, kind.payload), doc["payload"], {}, "payload"), **header
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {doc['kind']} payload ({exc})") from None
