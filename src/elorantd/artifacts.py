"""Serialized model artifacts: one JSON schema family, per-kind payloads.

Artifacts are self-describing (schema + kind + axis metadata) and
deterministic: keys are sorted and floats round-trip exactly through
JSON's shortest-repr formatting, so identical training runs produce
byte-identical files.  Loading checks every field ``models.KINDS`` declares.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ArtifactError
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
        if not np.isfinite(value).all() or (spec.positive and not (value > 0).all()):
            raise ValueError(f"{where}: non-finite{' or non-positive' * spec.positive} value")
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
            or (spec.positive and not raw > 0)):
        raise ValueError(f"{where}: {raw!r} is not a{' positive' * spec.positive} "
                         f"{_SCALAR_NAMES[spec.type]}")
    return raw


def model_kind(model) -> ModelKind:
    """The registry entry of a model's class."""
    kind = next((k for k in KINDS.values() if isinstance(model, k.model)), None)
    if kind is None:
        raise ArtifactError(f"cannot serialize model type {type(model).__name__}")
    return kind


def model_document(model) -> dict:
    kind = model_kind(model)
    return {
        "schema": SCHEMA,
        "kind": kind.name,
        **encode(HEADER, model),
        "payload": encode(Record(dict, kind.payload), model),
    }


def save_model(model, path) -> None:
    doc = model_document(model)
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_model(path):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path}: byte 0x{exc.object[exc.start]:02x} at offset "
                            f"{exc.start} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON ({exc})") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise ArtifactError(f"{path}: unknown artifact schema {schema!r}")
    for key in ("kind", "payload"):  # the header's fields are HEADER's
        if key not in doc:
            raise ArtifactError(f"{path}: artifact missing field {key!r}")
    kind = KINDS.get(doc["kind"]) if isinstance(doc["kind"], str) else None
    if kind is None:
        raise ArtifactError(f"{path}: unknown artifact kind {doc['kind']!r}")
    try:
        header = decode(HEADER, doc, {}, "artifact")
        header["factors"] = factor_set(header["factors"])
    except ValueError as exc:
        raise ArtifactError(f"{path}: malformed artifact header ({exc})") from None
    try:
        return kind.model(
            **decode(Record(dict, kind.payload), doc["payload"], {}, "payload"), **header
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed {doc['kind']} payload ({exc})") from None
