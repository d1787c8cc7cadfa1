import dataclasses
import json

import numpy as np
import pytest

from elorantd import baselines, lasso, synth, wlr_agrnn
from elorantd.artifacts import (
    SCHEMA,
    load_model,
    model_document,
    model_kind,
    save_model,
)
from elorantd.errors import DataError
from elorantd.types import FACTORS_3, GeoPoint


@pytest.fixture(scope="module")
def toy_data():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 3)) * [2.0, 5.0, 1.0] + [10.0, 50.0, 0.0]
    y = 40.0 + 1.5 * x[:, 0] - 0.2 * x[:, 1] + rng.normal(size=12)
    return x, y


ADAM = dict(learning_rate=0.01, max_iterations=5, tol=1e-8, patience=5, seed=0)
BPNN_CFG = baselines.BpnnConfig(hidden=4, **ADAM)
MOE_CFG = baselines.MoeConfig(experts=2, expert_hidden=3, **ADAM)
KIND_NAMES = ["lasso_mpr", "wlr_agrnn", "bpnn", "grnn", "moe"]


@pytest.fixture(scope="module")
def every_model(toy_data):
    """One trained instance of each artifact kind."""
    x, y = toy_data
    tensor = x[:, None, :]
    elevations = np.array([120.0])
    meta = {"n_train": 12, "note": "fixture"}
    common = dict(factors=FACTORS_3, location_mode="receiver_only", meta=meta)
    wlr_cfg = wlr_agrnn.TrainConfig(hidden=3, learning_rate=0.01, max_iterations=5, seed=1)

    def labelled(result):
        return dataclasses.replace(result[0], **common)

    return {
        "lasso_mpr": labelled(lasso.train(x, y, lasso.LassoConfig(degree=2, alpha=0.5))),
        "wlr_agrnn": labelled(wlr_agrnn.train(
            tensor, y, elevations, wlr_cfg, points=(GeoPoint(36.392, 127.3529),))),
        "bpnn": labelled(baselines.train_bpnn(x, y, BPNN_CFG)),
        "grnn": labelled(baselines.train_grnn(x, y)),
        "moe": labelled(baselines.train_moe(
            x, y, MOE_CFG, group_slices=baselines.default_group_slices(3, 2, n_locations=1))),
    }


def predictions(model, x):
    if isinstance(model, wlr_agrnn.WlrAgrnnModel):
        return model.predict_batch(x[:, None, :])
    return model.predict(x)


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_round_trip_preserves_predictions(kind, every_model, toy_data, tmp_path):
    x, _ = toy_data
    model = every_model[kind]
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model_kind(loaded).name == kind
    assert type(loaded) is type(model)
    assert tuple(loaded.factors) == tuple(model.factors)
    assert loaded.location_mode == model.location_mode
    assert dict(loaded.meta) == dict(model.meta)
    np.testing.assert_array_equal(predictions(loaded, x), predictions(model, x))


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_save_is_byte_deterministic(kind, every_model, tmp_path):
    model = every_model[kind]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()
    # and a load/save cycle reproduces the file exactly
    save_model(load_model(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_retraining_same_seed_gives_identical_artifact(toy_data, tmp_path):
    x, y = toy_data
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(baselines.train_bpnn(x, y, BPNN_CFG)[0], a)
    save_model(baselines.train_bpnn(x, y, BPNN_CFG)[0], b)
    assert a.read_bytes() == b.read_bytes()


def test_document_shape(every_model):
    doc = model_document(every_model["grnn"])
    assert doc["schema"] == SCHEMA
    assert doc["kind"] == "grnn"
    assert doc["factors"] == [f.column for f in FACTORS_3]
    assert doc["location_mode"] == "receiver_only"
    assert set(doc["payload"]) == {"bank", "y", "sigma", "standardizer"}
    json.dumps(doc)  # document must be pure-JSON serializable


def test_wlr_points_round_trip(every_model, tmp_path):
    path = tmp_path / "m.json"
    save_model(every_model["wlr_agrnn"], path)
    loaded = load_model(path)
    assert loaded.points == every_model["wlr_agrnn"].points
    np.testing.assert_array_equal(loaded.sigmas, every_model["wlr_agrnn"].sigmas)
    np.testing.assert_array_equal(loaded.h_tilde, every_model["wlr_agrnn"].h_tilde)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="not valid JSON"):
        load_model(path)


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"schema": "other/9", "kind": "grnn"}), encoding="utf-8")
    with pytest.raises(DataError, match="schema"):
        load_model(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"schema": SCHEMA, "kind": "grnn"}), encoding="utf-8")
    with pytest.raises(DataError, match="missing field"):
        load_model(path)


def write_kind(path, kind):
    doc = {
        "schema": SCHEMA,
        "kind": kind,
        "factors": [],
        "location_mode": "receiver_only",
        "meta": {},
        "payload": {},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "kind.json"
    write_kind(path, "oracle")
    with pytest.raises(DataError, match="unknown artifact kind"):
        load_model(path)


@pytest.mark.parametrize("kind", ["constant", "lookup"])
def test_load_rejects_retired_kind(tmp_path, kind):
    """constant and lookup were kinds of earlier versions that nothing trained."""
    path = tmp_path / "kind.json"
    write_kind(path, kind)
    with pytest.raises(DataError, match=f"unknown artifact kind '{kind}'"):
        load_model(path)


@pytest.mark.parametrize("kind", [5, None, ["grnn"], {"name": "grnn"}])
def test_load_rejects_kind_that_is_not_a_string(tmp_path, kind):
    """A list or an object cannot even be looked up in the registry."""
    path = tmp_path / "kind.json"
    write_kind(path, kind)
    with pytest.raises(DataError, match="unknown artifact kind"):
        load_model(path)


def test_load_rejects_malformed_payload(every_model, tmp_path):
    path = tmp_path / "payload.json"
    save_model(every_model["lasso_mpr"], path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["payload"]["beta"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="malformed lasso_mpr payload"):
        load_model(path)


@pytest.mark.parametrize("kind", KIND_NAMES)
@pytest.mark.parametrize(
    "key,value",
    [("location_mode", 5), ("location_mode", "bogus"), ("location_mode", None),
     ("meta", [["x", 1]]), ("meta", "n_train"), ("factors", ["warp_field"]),
     ("factors", "pressure_hpa"), ("factors", [1.5]),
     ("factors", ["pressure_hpa", "pressure_hpa"])],
)
def test_load_rejects_malformed_header(kind, every_model, tmp_path, key, value):
    path = tmp_path / "header.json"
    save_model(every_model[kind], path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[key] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="malformed artifact header"):
        load_model(path)


@pytest.mark.parametrize("kind", KIND_NAMES)
@pytest.mark.parametrize("key", ["factors", "location_mode", "meta"])
def test_load_rejects_missing_header_field(kind, every_model, tmp_path, key):
    path = tmp_path / "header.json"
    save_model(every_model[kind], path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc[key]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match=f"malformed artifact header .*missing '{key}'"):
        load_model(path)


@pytest.mark.parametrize("kind, field", [
    ("grnn", ("standardizer", "sd", 0)), ("lasso_mpr", ("standardizer", "sd", 0)),
    ("bpnn", ("target_scale", "sd")), ("moe", ("target_scale", "sd")),
])
@pytest.mark.parametrize("value", [0.0, -2.0])
def test_load_rejects_non_positive_sd(kind, field, value, every_model, tmp_path):
    """No fit writes an sd <= 0, and predictions would silently flip or overflow."""
    path = tmp_path / "sd.json"
    save_model(every_model[kind], path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    node = doc["payload"]
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match=f"malformed {kind} payload .*sd"):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    (("standardizer", "sd", 0), 1e-320), (("sigma",), 1e-320), (("sigma",), 1e-300),
])
def test_load_rejects_subnormal_grnn_scale(field, value, every_model, tmp_path):
    """No fit writes a subnormal sd or sigma, or a sigma whose kernel scale
    0.5 / sigma^2 overflows; dividing by one overflows, and predict would
    answer every query with its nearest bank row."""
    path = tmp_path / "grnn.json"
    save_model(every_model["grnn"], path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    node = doc["payload"]
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError,
                       match="malformed grnn payload .*(subnormal|positive normal|kernel scale)"):
        load_model(path)


def test_load_rejects_a_wlr_bandwidth_with_no_finite_kernel_scale(every_model, tmp_path):
    path = tmp_path / "wlr.json"
    save_model(every_model["wlr_agrnn"], path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["payload"]["sigmas"][0] = 1e-300
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="malformed wlr_agrnn payload .*kernel scale"):
        load_model(path)


def test_save_rejects_foreign_objects(tmp_path):
    with pytest.raises(DataError, match="cannot serialize"):
        save_model(object(), tmp_path / "x.json")


@pytest.mark.parametrize("text", [json.dumps([1, 2, 3]), "not json {"])
def test_load_rejects_non_artifact(tmp_path, text):
    path = tmp_path / "x.json"
    path.write_text(text, encoding="utf-8")
    fragment = "not valid JSON" if text == "not json {" else "unknown artifact schema None"
    with pytest.raises(DataError, match=fragment):
        load_model(path)


@pytest.mark.parametrize("load,what", [(load_model, "artifact"),
                                       (synth.load_scenario_config, "scenario")],
                         ids=["artifact", "scenario"])
@pytest.mark.parametrize("data,fault", [
    (b'{"schema": "\xff"}', ":1: byte 0xff is not UTF-8 text"),
    (b"not json {", ": not valid JSON (Expecting value: line 1 column 1"),
    (b"[1, 2, 3]", ": unknown {what} schema None"),
    (b'{"schema": "elorantd.other/1"}', ": unknown {what} schema 'elorantd.other/1'"),
    (b"[" + b"1" * 5000 + b"]", ": not valid JSON (Exceeds the limit"),
    (b"[" * 100000, ": not valid JSON (maximum recursion depth exceeded"),
], ids=["not_utf8", "not_json", "list", "other_schema", "long_integer", "deep_nesting"])
def test_both_documents_name_their_file_in_every_read_fault(tmp_path, load, what, data, fault):
    """A model artifact and a scenario.meta are read by one reader, so
    each fault is worded alike and starts with the file's path."""
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(DataError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}{fault.format(what=what)}")


def _payload_leaves(node, path=()):
    """(action, path) for every JSON list and every float under node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _payload_leaves(value, path + (key,))
    elif isinstance(node, list):
        yield "truncate", path
        for i, value in enumerate(node):
            yield from _payload_leaves(value, path + (i,))
    elif isinstance(node, float):
        yield "nan", path


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_load_rejects_truncated_arrays_and_nan(kind, every_model, tmp_path):
    """Every array cut short by one entry and every float set to NaN is
    refused at load time, before a predict call could trip over it."""
    path = tmp_path / "m.json"
    save_model(every_model[kind], path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    leaves = list(_payload_leaves(doc["payload"]))
    assert any(action == "nan" for action, _ in leaves)
    assert any(action == "truncate" for action, _ in leaves)
    for action, where in leaves:
        broken = json.loads(json.dumps(doc))
        node = broken["payload"]
        for key in where[:-1]:
            node = node[key]
        if action == "truncate":
            node[where[-1]] = node[where[-1]][:-1]
        else:
            node[where[-1]] = float("nan")
        path.write_text(json.dumps(broken), encoding="utf-8")
        with pytest.raises(DataError, match=f"malformed {kind} payload"):
            load_model(path)
            pytest.fail(f"{action} at {where} loaded")


def test_load_rejects_moe_slice_that_misses_its_expert(every_model, tmp_path):
    path = tmp_path / "moe.json"
    save_model(every_model["moe"], path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["payload"]["group_slices"][0] = [0, 2]  # the expert's w1 reads 3 inputs
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError, match="does not fit"):
        load_model(path)


def test_wlr_reload_predicts_bit_for_bit_on_a_path_bank(tmp_path):
    """Many path points: the trained bank must be laid out as the reloaded one,
    or BLAS sums the two in different orders and predictions drift apart."""
    rng = np.random.default_rng(8)
    t_count, l_count = 240, 40
    x = rng.normal(size=(t_count, l_count, 3)) * [2.0, 5.0, 1.0] + [10.0, 50.0, 0.0]
    y = 40.0 + x[:, :, 0].mean(axis=1) - 0.2 * x[:, -1, 1] + rng.normal(size=t_count)
    cfg = wlr_agrnn.TrainConfig(hidden=3, learning_rate=0.01, max_iterations=2, seed=1)
    model, _ = wlr_agrnn.train(x, y, rng.uniform(0.0, 300.0, size=l_count), cfg)
    model = dataclasses.replace(model, factors=FACTORS_3)
    path = tmp_path / "wlr.json"
    save_model(model, path)
    queries = rng.normal(size=(60, l_count, 3)) * [2.0, 5.0, 1.0] + [10.0, 50.0, 0.0]
    assert np.array_equal(load_model(path).predict_batch(queries), model.predict_batch(queries))
