"""The model registry: every model kind declared once, in ``KINDS``.

An entry names the kind, its model class, its artifact payload fields
(arrays with named axes), its frozen config dataclass (validated in
``__post_init__``) and its train adapter: every kind is trained by name,
and an artifact of any other kind is refused at load.  Every
trainer has one contract, train(x, y, cfg): x the flat inputs (WLR-AGRNN:
the tensor, its elevations and points; MoE: its group slices too), y the
hourly TD.  An adapter maps a feature bundle to those arguments and
returns the trainer's (model, trace); the model's factors, location mode
and meta are set afterwards, by pipeline.train_model alone.  Adapters
look their train function up on its module at each call, so rebinding
a module attribute (as a profiler does) reaches them.
"""
from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Callable

from . import baselines, lasso, wlr_agrnn
from .errors import ConfigError
from .features import ScalarStandardizer, Standardizer
from .types import GeoPoint, MetFactor


# -- payload field declarations ------------------------------------------------
# An axis name stands for one size across a payload; each Items entry
# has axes of its own.

@dataclass(frozen=True)
class Scalar:
    """A JSON number, string, boolean or object (kept as read) of exactly this
    type (an int is a float); positive: at least the smallest normal float."""

    type: type
    positive: bool = False


@dataclass(frozen=True)
class Array:
    """A finite float array, one axis name per dimension; positive: each entry
    at least the smallest normal float."""

    axes: tuple[str, ...]
    positive: bool = False


@dataclass(frozen=True)
class Record:
    """An object or tuple as a JSON object (a list when as_list), field by field."""

    make: Callable
    fields: dict
    as_list: bool = False


@dataclass(frozen=True)
class Items:
    """A tuple of like entries along one axis; optional allows null."""

    axis: str
    item: object
    optional: bool = False


@dataclass(frozen=True)
class Text:
    """A JSON string read by parse (ValueError if malformed), written by format."""

    parse: Callable
    format: Callable


@dataclass(frozen=True)
class Table:
    """A dict as a JSON object: Text keys, like entries."""

    key: Text
    item: object


def as_tuple(**parts):
    return tuple(parts.values())


FACTOR = Text(MetFactor.from_column, attrgetter("column"))


_STANDARDIZER = Record(Standardizer, {"mean": Array(("n",)), "sd": Array(("n",), positive=True)})
_TARGET_SCALE = Record(ScalarStandardizer, {"mean": Scalar(float),
                                            "sd": Scalar(float, positive=True)})
_LAYER = {  # affine or tanh layer over the n standardized inputs
    "w1": Array(("hidden", "n")),
    "b1": Array(("hidden",)),
    "w2": Array(("hidden",)),
    "b2": Scalar(float),
}


# -- train adapters: (config, bundle) -> (model, trace) -------------------------

def _flat(module, name: str):
    """The adapter of a trainer of flat inputs, module.name(x, y, cfg)."""
    return lambda cfg, bundle: getattr(module, name)(bundle.flat, bundle.td, cfg)


def _train_wlr(cfg, bundle):
    return wlr_agrnn.train(bundle.tensor, bundle.td, bundle.elevations, cfg,
                           points=bundle.points)


def _train_moe(cfg, bundle):
    n_loc = bundle.n_locations
    if n_loc == 1:  # every expert reads the whole input, train_moe's default
        return baselines.train_moe(bundle.flat, bundle.td, cfg)
    experts = min(cfg.experts, n_loc)  # at most one expert per location
    slices = baselines.default_group_slices(bundle.flat.shape[1], experts, n_locations=n_loc)
    return baselines.train_moe(bundle.flat, bundle.td, replace(cfg, experts=experts),
                               group_slices=slices)


@dataclass(frozen=True)
class ModelKind:
    name: str
    model: type
    payload: dict  # JSON key -> Scalar | Array | Record | Items | Text | Table
    config: type
    train: Callable


KINDS = {kind.name: kind for kind in (
    ModelKind("lasso_mpr", lasso.LassoMprModel, {
        "n_inputs": Scalar(int),
        "degree": Scalar(int),
        "alpha": Scalar(float),
        "standardizer": _STANDARDIZER,
        "beta": Array(("columns",)),  # LassoMprModel checks n_inputs, degree fit
    }, lasso.LassoConfig, _flat(lasso, "train")),
    ModelKind("wlr_agrnn", wlr_agrnn.WlrAgrnnModel, {
        "params": Record(wlr_agrnn.WlrParams, _LAYER),
        "h_tilde": Array(("l",)),
        "elevation_mode": Scalar(str),
        "sigmas": Array(("l",), positive=True),
        "bank": Array(("l", "T")),
        "y": Array(("T",)),
        "w": Array(("T",)),
        "standardizer": _STANDARDIZER,
        "points": Items("l", Record(GeoPoint, {"lat": Scalar(float), "lon": Scalar(float)},
                                    as_list=True), optional=True),
    }, wlr_agrnn.TrainConfig, _train_wlr),
    ModelKind("bpnn", baselines.BpnnModel, {
        **_LAYER,
        "standardizer": _STANDARDIZER,
        "target_scale": _TARGET_SCALE,
    }, baselines.BpnnConfig, _flat(baselines, "train_bpnn")),
    ModelKind("grnn", baselines.GrnnModel, {
        "bank": Array(("T", "n")),
        "y": Array(("T",)),
        "sigma": Scalar(float, positive=True),
        "standardizer": _STANDARDIZER,
    }, baselines.GrnnConfig, _flat(baselines, "train_grnn")),
    ModelKind("moe", baselines.MoeModel, {
        "experts": Items("experts", Record(as_tuple, _LAYER)),  # n: its group's width
        "gate_w": Array(("experts", "n")),
        "gate_b": Array(("experts",)),
        "group_slices": Items("experts", Record(
            as_tuple, {"lo": Scalar(int), "hi": Scalar(int)}, as_list=True)),
        "standardizer": _STANDARDIZER,
        "target_scale": _TARGET_SCALE,
    }, baselines.MoeConfig, _train_moe),
)}

MODEL_NAMES = tuple(KINDS)


@functools.cache
def option_types(config: type) -> dict[str, type]:
    """The INI keys a config accepts, each with its field's type (the first
    member of a union: X for X | None, str for str | FactorSet)."""
    hints = typing.get_type_hints(config)
    return {
        f.name: (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
        for f in fields(config)
    }


def section_config(config: type, section: str, options: dict, label: str | None = None):
    """config from one INI section's options, each an INI string or a value,
    typed by its field (an int must fit 64 bits); an unknown key, an
    unparsable value or a value config rejects is a ConfigError naming the
    section, or label (a model kind) if given."""
    types, typed = option_types(config), {}
    for key, value in options.items():
        if key not in types:
            raise ConfigError(f"unknown {label or section} option {section}.{key}")
        try:
            typed[key] = value if value is None else types[key](value)
            if types[key] is int and not -2 ** 63 <= typed[key] < 2 ** 63:
                raise ValueError
        except (TypeError, ValueError):
            raise ConfigError(f"{section}.{key}: cannot parse {value!r}") from None
    try:
        return config(**typed)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{label or section}: {exc}") from None
