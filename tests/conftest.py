"""Shared fixtures: one small synthetic scenario reused across test modules,
and the helpers that edit an array of a saved artifact."""
import base64
import struct

import numpy as np
import pytest
from dataclasses import replace

from elorantd import synth
from elorantd.types import FACTORS_3, MetFactor


def small_scenario_config(seed: int = 7, noise_sd_ns: float = 5.0):
    """A 20-day, 5-station, 16-point scenario that generates in ~0.2 s."""
    recipe = synth.GroundTruthRecipe(
        base_ns=150.0,
        linear_ns={MetFactor.PRESSURE: -3.0, MetFactor.TEMPERATURE: 2.5},
        elevation_gain=2.0,
    )
    return replace(
        synth.default_scenario_config(seed=seed, noise_sd_ns=noise_sd_ns),
        duration_hours=480,
        station_count=5,
        l=16,
        factors=FACTORS_3,
        td_samples_per_hour=12,
        recipe=recipe,
    )


@pytest.fixture(scope="session")
def small_scenario():
    return synth.generate_scenario(small_scenario_config())


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory, small_scenario):
    out = tmp_path_factory.mktemp("corpus")
    synth.write_corpus(small_scenario, out)
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


# -- an artifact array as saved: {"shape": [...], "b64": <little-endian float64 bytes>}

def is_encoded_array(node) -> bool:
    return isinstance(node, dict) and set(node) == {"shape", "b64"}


def array_bytes(node) -> bytearray:
    return bytearray(base64.b64decode(node["b64"]))


def with_bytes(node: dict, data: bytes) -> dict:
    """node with its bytes replaced by data (its shape as it was)."""
    return {**node, "b64": base64.b64encode(data).decode("ascii")}


def with_entry(node: dict, index: int, value: float) -> dict:
    """node with flat entry index set to value."""
    data = array_bytes(node)
    struct.pack_into("<d", data, 8 * index, value)
    return with_bytes(node, data)
