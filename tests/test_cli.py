import csv
import dataclasses
import functools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elorantd
from elorantd import cli, models, synth
from elorantd.artifacts import encode, load_model
from elorantd.cli import main
from elorantd.ingest import aggregate_hourly, parse_td_csv
from elorantd.models import option_types
from elorantd.types import EpochHour, MetFactor
from tests.conftest import small_scenario_config

TRAIN_RANGE = "2024-10-01..2024-10-06"
TEST_RANGE = "2024-10-15..2024-10-21"


def write_ini(path, text) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def base_ini(corpus_dir, extra="", corpus_extra="") -> str:
    return (
        f"[corpus]\ndir = {corpus_dir}\n{corpus_extra}"
        "[features]\nfactors = 3\nlocation_mode = receiver_only\n"
        + extra
    )


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def ini(tmp_path, small_corpus_dir):
    def make(extra=""):
        return write_ini(tmp_path / "run.ini", base_ini(small_corpus_dir, extra))

    return make


@pytest.fixture(scope="module")
def noiseless_corpus(tmp_path_factory):
    """Receiver-only temperature recipe with zero noise: TD is a pure
    affine image of one factor, so its correlation row is unambiguous."""
    cfg = dataclasses.replace(
        small_scenario_config(seed=13, noise_sd_ns=0.0),
        duration_hours=240,
        recipe=synth.GroundTruthRecipe(
            linear_ns={MetFactor.TEMPERATURE: 3.0}, receiver_only=True
        ),
    )
    out = tmp_path_factory.mktemp("noiseless")
    synth.write_corpus(synth.generate_scenario(cfg), out)
    return out


# -- synth ----------------------------------------------------------------------


def test_synth_same_seed_byte_identical(tmp_path, small_corpus_dir):
    meta = str(small_corpus_dir / "scenario.meta")
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["synth", "--scenario", meta, "--out", str(d1)]) == 0
    assert main(["synth", "--scenario", meta, "--out", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == ["dem.asc", "scenario.meta", "stations.csv", "td.csv", "weather.csv"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    # and the regenerated corpus reproduces the one the meta came from
    for name in names:
        assert (d1 / name).read_bytes() == (small_corpus_dir / name).read_bytes(), name


def test_synth_seed_flag_overrides(tmp_path, small_corpus_dir):
    meta = str(small_corpus_dir / "scenario.meta")
    out = tmp_path / "seeded"
    assert main(["synth", "--scenario", meta, "--seed", "9", "--out", str(out)]) == 0
    assert (out / "td.csv").read_bytes() != (small_corpus_dir / "td.csv").read_bytes()
    assert json.loads((out / "scenario.meta").read_text())["seed"] == 9


def test_synth_missing_scenario_file_exit_2(tmp_path, capsys):
    code = main(["synth", "--scenario", str(tmp_path / "nope.meta"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "synth.scenario" in capsys.readouterr().err


def test_synth_out_of_range_scenario_file_exit_2(tmp_path, small_corpus_dir, capsys):
    meta = json.loads((small_corpus_dir / "scenario.meta").read_text())
    for key, value in (("seed", -3), ("noise_sd_ns", "nan")):
        bad = tmp_path / f"{key}.meta"
        bad.write_text(json.dumps({**meta, key: value}))
        assert main(["synth", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_refuses_a_scenario_whose_dem_leaves_the_elevation_range(
    tmp_path, small_corpus_dir, capsys
):
    meta = json.loads((small_corpus_dir / "scenario.meta").read_text())
    bad = tmp_path / "alpine.meta"
    bad.write_text(json.dumps({**meta, "dem": {**meta["dem"], "base_m": 9500.0}}))
    assert main(["synth", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "outside -500..9000 m" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- scenario.meta mutations ------------------------------------------------------

HUGE = 10 ** 12
MISSING = object()
# Values each field's documented range rejects; every other 0, -1 or huge
# value is a valid scenario.  "*" matches one key.
OUT_OF_RANGE = {
    "seed": (-1,),
    "duration_hours": (0, -1, HUGE),
    "station_count": (0, -1, HUGE),
    "l": (0, 1, -1, HUGE),
    "td_samples_per_hour": (0, -1, 3601, HUGE),
    "station_jitter_deg": (-1,),
    "grid_cellsize": (0, -1),
    "grid_padding": (-1, HUGE),
    "td_jitter_ns": (-1,),
    "noise_sd_ns": (-1,),
    "start": ("9999-12-31T23:00:00Z", "2024-10-01T00:30:00Z", "2024-10-01T00:00:00+09:00"),
    "tx[0]": (-HUGE, HUGE),
    "rx[1]": (HUGE,),
    "recipe.elevation_gain": (-1,),
    "recipe.scales.*": (0, -1),
    "dem.cellsize": (0, -1, 1 / HUGE),
    "dem.padding": (-1, HUGE),
    "dem.hills": (-1, HUGE),
    "dem.amp_range[0]": (HUGE,),
    "dem.amp_range[1]": (-1,),
    "dem.width_range[0]": (0, -1, HUGE),
    "dem.width_range[1]": (0, -1),
    "weather.*.ar_rho": (-1, 1, HUGE),
}
TABLES = ("recipe.linear_ns", "recipe.centers", "recipe.scales", "weather")
FIXED_LISTS = ("tx", "rx", "dem.amp_range", "dem.width_range")


def _dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _pattern(path) -> str:
    """A Table entry's key matches "*"."""
    parts = [k if isinstance(k, int) or _dotted(path[:i]) not in TABLES else "*"
             for i, k in enumerate(path)]
    return _dotted(parts)


def scenario_meta_mutations(doc: dict, factors) -> list[tuple[str, object]]:
    """(label, mutated document) for every field of a scenario.meta: each
    value swapped for a wrong JSON type, null, a string, +-inf and nan, and,
    where it is not a number, 0 and -1; each declared key dropped; each
    fixed-length list one entry longer and shorter; each table given an
    unknown factor key; and each value of OUT_OF_RANGE.  Each one is
    malformed.  The wrong-type stand-ins are drawn from a seeded generator."""
    rng = random.Random(2024)
    wrong_types = ([1.5], {"v": 1}, True, [])
    cases: list[tuple[str, object]] = []

    def put(label, path, value):
        mutated = json.loads(json.dumps(doc))
        node = mutated
        for key in path[:-1]:
            node = node[key]
        if value is MISSING:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        cases.append((f"{_dotted(path)}: {label}", mutated))

    def walk(path, value):
        dotted, pattern = _dotted(path), _pattern(path)
        if path == ("path_length_km",):  # written for readers, never read
            return
        stand_in = rng.choice([w for w in wrong_types if type(w) is not type(value)])
        for label, bad in (("wrong type", stand_in), ("null", None),
                           ("string", "abc"), ("inf", math.inf), ("-inf", -math.inf),
                           ("nan", math.nan)) if path else ():
            put(label, path, bad)
        parent = _dotted(path[:-1])
        if path and not isinstance(path[-1], int) and (
                parent not in TABLES or (parent == "weather" and path[-1] in factors)):
            put("missing key", path, MISSING)
        values = OUT_OF_RANGE.get(pattern, ())
        if path and type(value) not in (int, float):
            values += (0, -1)
        for bad in values:
            put(f"value {bad!r}", path, bad)
        if dotted in FIXED_LISTS:
            put("one entry too many", path, value + value[-1:])
            put("one entry too few", path, value[:-1])
        if dotted == "factors":
            put("repeated factor", path, value + value[:1])
            put("a factor the recipe uses dropped", path, value[:-1])
        if dotted in TABLES:
            put("unknown factor key", path, {**value, "warp_field": value[next(iter(value))]})
        children = (value.items() if isinstance(value, dict)
                    else enumerate(value) if isinstance(value, list) else ())
        for key, child in children:
            walk(path + (key,), child)

    walk((), doc)  # the whole-file cases are the test's own
    return cases


def _scenario_meta_base() -> tuple[dict, tuple]:
    """The small corpus's scenario with the cubic recipe, so that centers,
    scales and interaction terms have fields too."""
    cfg = dataclasses.replace(small_scenario_config(), recipe=synth.cubic_recipe())
    doc = {"schema": synth.SCENARIO_SCHEMA, "path_length_km": 179.28,
           **encode(synth.SCENARIO_LAYOUT, cfg)}
    return doc, tuple(f.column for f in cfg.factors)


def test_scenario_meta_mutations_cover_every_field():
    doc, factors = _scenario_meta_base()
    labels = [label for label, _ in scenario_meta_mutations(doc, factors)]
    assert len(labels) == len(set(labels))
    fields = {label.split(":")[0] for label in labels}
    for field in ("seed", "start", "tx[1]", "factors[2]", "recipe.interactions[0].factors[2]",
                  "recipe.receiver_only", "recipe.scales.temperature_c", "dem.hills",
                  "dem.width_range[1]", "weather.wind_speed_ms.seasonal_phase"):
        assert field in fields
    assert {"dem.cellsize: value 0", "weather.temperature_c: missing key",
            "dem.amp_range: one entry too many", "recipe.receiver_only: string",
            "recipe.receiver_only: value 0", "seed: null", "tx: string", "dem: wrong type",
            "duration_hours: value 1000000000000", "factors: repeated factor"} <= set(labels)


def test_every_scenario_meta_mutation_exits_2_from_synth_and_3_from_train(
    tmp_path, small_corpus_dir, capsys
):
    doc, factors = _scenario_meta_base()
    meta = tmp_path / "scenario.meta"
    meta.write_text(json.dumps(doc))
    assert synth.load_scenario_config(meta) == dataclasses.replace(
        small_scenario_config(), recipe=synth.cubic_recipe())
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("stations.csv", "weather.csv", "td.csv", "dem.asc"):
        (corpus / name).write_bytes((small_corpus_dir / name).read_bytes())
    ini = write_ini(tmp_path / "run.ini", base_ini(corpus, f"[split]\ntrain = {TRAIN_RANGE}\n"))
    whole_file = [("not JSON", "{\"seed\": 7,"), ("a list", "[]"), ("a number", "7"),
                  ("null", "null"), ("empty object", "{}"),
                  ("no schema", json.dumps({k: v for k, v in doc.items() if k != "schema"})),
                  ("other schema", json.dumps({**doc, "schema": "elorantd.scenario/9"})),
                  ("dem as a list", json.dumps({**doc, "dem": []})),
                  ("duration_hours 1e12", json.dumps(doc).replace('"duration_hours": 480',
                                                                  '"duration_hours": 1e12'))]
    cases = whole_file + [(label, json.dumps(bad))
                          for label, bad in scenario_meta_mutations(doc, factors)]
    for label, text in cases:
        meta.write_text(text)
        (corpus / "scenario.meta").write_text(text)
        assert main(["synth", "--scenario", str(meta), "--out", str(tmp_path / "out")]) == 2, label
        assert main(["train", "--config", ini, "--corpus", str(corpus), "--model", "grnn",
                     "--out", str(tmp_path / "m.json")]) == 3, label
        err = capsys.readouterr().err
        assert "Traceback" not in err, label
        assert err.count("config error: synth.scenario:") == 1, (label, err)
        assert err.count("data error:") == 1 and "scenario.meta" in err, (label, err)
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "old,new",
    [('"duration_hours": 480', '"duration_hours": 1e12'),
     ('"receiver_only": true', '"receiver_only": "no"'),
     ('"cellsize": 0.02', '"cellsize": 0')],
)
def test_scenario_meta_mutation_console_exit_2_without_traceback(tmp_path, old, new):
    doc, _ = _scenario_meta_base()
    text = json.dumps(doc)
    assert old in text
    bad = tmp_path / "bad.meta"
    bad.write_text(text.replace(old, new))
    out = tmp_path / "corpus"
    assert_exit_2_without_traceback(["synth", "--scenario", str(bad), "--out", str(out)])
    assert not out.exists()


# -- ingest ----------------------------------------------------------------------


def test_ingest_summary_and_csv(tmp_path, small_corpus_dir, ini, capsys):
    out = tmp_path / "aligned.csv"
    assert main(["ingest", "--config", ini(), "--out", str(out)]) == 0
    assert "aligned epochs: 480" in capsys.readouterr().out
    rows = read_csv(out)
    assert rows[0] == ["timestamp", "station_id", "pressure_hpa", "humidity_pct",
                       "temperature_c", "td_ns"]
    assert len(rows) == 1 + 480 * 5


def test_ingest_factor_superset_exit_3(small_corpus_dir, capsys):
    # default factor set is all eleven; the corpus only carries three
    assert main(["ingest", "--corpus", str(small_corpus_dir)]) == 3
    assert "data error" in capsys.readouterr().err


def test_ingest_missing_corpus_file_exit_3(tmp_path, small_corpus_dir):
    partial = tmp_path / "partial"
    partial.mkdir()
    for name in ("stations.csv", "weather.csv", "td.csv"):
        (partial / name).write_bytes((small_corpus_dir / name).read_bytes())
    assert main(["ingest", "--corpus", str(partial)]) == 3


@pytest.mark.parametrize(
    "key,value",
    [("ncols", "nan"), ("nrows", "inf"), ("xllcorner", "inf"), ("yllcorner", "-1e308"),
     ("cellsize", "-1e308")],
)
def test_ingest_bad_dem_header_value_exit_3(tmp_path, small_corpus_dir, capsys, key, value):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("stations.csv", "weather.csv", "td.csv", "scenario.meta"):
        (corpus / name).write_bytes((small_corpus_dir / name).read_bytes())
    dem = (small_corpus_dir / "dem.asc").read_text().splitlines()
    line = next(i for i, text in enumerate(dem) if text.lower().startswith(key))
    dem[line] = f"{key} {value}"
    (corpus / "dem.asc").write_text("\n".join(dem) + "\n")
    cfg = write_ini(tmp_path / "run.ini", base_ini(corpus))
    assert main(["ingest", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert f"dem.asc:{line + 1}: {key} must be" in err


def test_missing_corpus_dir_exit_2(tmp_path):
    assert main(["ingest", "--corpus", str(tmp_path / "void")]) == 2


# -- config file validation --------------------------------------------------------


def test_unknown_config_key_exit_2(tmp_path, small_corpus_dir, capsys):
    cfg = write_ini(tmp_path / "bad.ini",
                    base_ini(small_corpus_dir, "[model]\nbogus = 1\n"))
    assert main(["ingest", "--config", cfg]) == 2
    assert "model.bogus" in capsys.readouterr().err


def test_unknown_config_section_exit_2(tmp_path, small_corpus_dir, capsys):
    cfg = write_ini(tmp_path / "bad.ini", base_ini(small_corpus_dir, "[extras]\nx = 1\n"))
    assert main(["ingest", "--config", cfg]) == 2
    assert "[extras]" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path):
    assert main(["ingest", "--config", str(tmp_path / "none.ini")]) == 2


def test_bad_factor_name_exit_2(tmp_path, small_corpus_dir):
    cfg = write_ini(
        tmp_path / "bad.ini",
        f"[corpus]\ndir = {small_corpus_dir}\n[features]\nfactors = warp_field\n",
    )
    assert main(["ingest", "--config", cfg]) == 2


def console(argv, **env_vars) -> subprocess.CompletedProcess:
    """Run the CLI as a subprocess, with env_vars set before numpy loads, so
    a traceback is visible and a hang is bounded."""
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(elorantd.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "elorantd.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


def assert_exit_2_without_traceback(argv):
    proc = console(argv)
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr
    assert "Traceback" not in proc.stderr and ".py:" not in proc.stderr


RX_ONLY = "location_mode = receiver_only\n"


@pytest.mark.parametrize(
    "corpus_extra,features_extra,model",
    [
        ("tx_lat = 36.0\n", RX_ONLY, "name = grnn\n"),
        ("rx_lon = 127.0\n", RX_ONLY, "name = grnn\n"),
        ("", RX_ONLY + "grid_cellsize = 0\n", "name = grnn\n"),
        ("", RX_ONLY + "grid_padding = -1\n", "name = grnn\n"),
        ("", "location_mode = path\nl = 1\n", "name = grnn\n"),
        ("", RX_ONLY, "name = bpnn\nhidden = 0\n"),
        ("", RX_ONLY, "name = wlr_agrnn\nhidden = 0\n"),
        ("", RX_ONLY, "name = grnn\nsigma = 0\n"),
        ("", RX_ONLY, "name = moe\nexperts = 1\n"),
        # a width option of the other tanh kind is unknown, not ignored
        ("", RX_ONLY, "name = bpnn\nexperts = 3\n"),
        ("", RX_ONLY, "name = bpnn\nexpert_hidden = 2\n"),
        ("", RX_ONLY, "name = moe\nhidden = 99\n"),
        ("", RX_ONLY, "name = lasso_mpr\ndegree = 0\n"),
        ("", RX_ONLY, "name = lasso_mpr\nalpha = -1\n"),
        ("", RX_ONLY, "name = wlr_agrnn\nelevation_mode = bogus\n"),
        ("", RX_ONLY, "name = wlr_agrnn\nsigma_tol = 0\n"),
        ("min_samples_per_hour = -5\n", RX_ONLY, "name = grnn\n"),
    ],
)
def test_invalid_settings_exit_2_without_traceback(
    tmp_path, small_corpus_dir, corpus_extra, features_extra, model
):
    cfg = write_ini(
        tmp_path / "bad.ini",
        f"[corpus]\ndir = {small_corpus_dir}\n{corpus_extra}"
        f"[features]\nfactors = 3\n{features_extra}"
        f"[split]\ntrain = {TRAIN_RANGE}\n[model]\n{model}",
    )
    assert_exit_2_without_traceback(["train", "--config", cfg, "--out", str(tmp_path / "m.json")])


@pytest.mark.parametrize("factors", [",", "", " , ,"])
@pytest.mark.parametrize("command", ["ingest", "train"])
def test_empty_factor_list_exit_2_without_traceback(tmp_path, small_corpus_dir, factors, command):
    cfg = write_ini(
        tmp_path / "bad.ini",
        f"[corpus]\ndir = {small_corpus_dir}\n[features]\nfactors = {factors}\n{RX_ONLY}"
        f"[split]\ntrain = {TRAIN_RANGE}\n[model]\nname = grnn\n",
    )
    out = ["--out", str(tmp_path / "m.json")] if command == "train" else []
    assert_exit_2_without_traceback([command, "--config", cfg, *out])


@pytest.mark.parametrize("value", ["-5", "0"])
def test_ingest_min_samples_below_one_exit_2_without_traceback(tmp_path, small_corpus_dir, value):
    cfg = write_ini(
        tmp_path / "bad.ini",
        base_ini(small_corpus_dir, corpus_extra=f"min_samples_per_hour = {value}\n"),
    )
    assert_exit_2_without_traceback(["ingest", "--config", cfg])


@pytest.mark.parametrize(
    "command,section",
    [
        ("sweep", "[sweep]\nholdout_fraction = nan\n"),
        ("sweep", "[sweep]\nholdout_fraction = inf\n"),
        ("sweep", "[sweep]\nholdout_fraction = 0\n"),
        ("sweep", "[sweep]\nholdout_fraction = 1\n"),
        ("sweep", "[sweep]\nholdout_fraction = 1.5\n"),
        ("correlate", "[correlate]\nr_min = nan\n"),
        ("correlate", "[correlate]\nr_min = -0.1\n"),
        ("correlate", "[correlate]\nr_min = 1.5\n"),
        ("correlate", "[correlate]\np_max = nan\n"),
        ("correlate", "[correlate]\np_max = 0\n"),
        ("correlate", "[correlate]\np_max = -1\n"),
        ("correlate", "[correlate]\np_max = 2\n"),
    ],
)
def test_invalid_sweep_and_correlate_settings_exit_2_without_traceback(
    tmp_path, small_corpus_dir, command, section
):
    cfg = write_ini(
        tmp_path / "bad.ini",
        base_ini(small_corpus_dir, f"[model]\nname = lasso_mpr\ndegree = 1\n{section}"),
    )
    assert_exit_2_without_traceback(
        [command, "--config", cfg, "--out", str(tmp_path / "out.csv")]
    )


@pytest.mark.parametrize(
    "section,flags",
    [
        ("noise_sd_ns = -1\n", []),
        ("noise_sd_ns = nan\n", []),
        ("noise_sd_ns = inf\n", []),
        ("seed = -5\n", []),
        ("", ["--seed", "-5"]),
        ("", ["--seed", "1" + "0" * 29]),  # scenario.meta could not hold it
    ],
)
def test_invalid_synth_settings_exit_2_without_traceback(tmp_path, section, flags):
    cfg = write_ini(tmp_path / "bad.ini", f"[synth]\nscenario = cubic\n{section}")
    out = tmp_path / "corpus"
    assert_exit_2_without_traceback(["synth", "--config", cfg, *flags, "--out", str(out)])
    assert not out.exists()


# -- INI mutations -----------------------------------------------------------------

INI_VALUES = ("", "nan", "inf", "-inf", "1e308", "1e-320", "-1", "0", "2.5", "warp_field",
              "1" + "0" * 29)
# [model] options that keep each kind's fit small, so a mutation it accepts trains quickly
MODEL_BASE = {"lasso_mpr": {"degree": "1", "max_sweeps": "50"},
              "wlr_agrnn": {"hidden": "2", "max_iterations": "2"},
              "bpnn": {"hidden": "2", "max_iterations": "2"},
              "moe": {"experts": "2", "expert_hidden": "2", "max_iterations": "2"}}
# settings faults that once passed the reader or broke a command after it:
# (command, section, keys set in it; a [model] name starts that section afresh)
INI_PROBES = [
    ("ingest", "features", {"location_mode": "bogus"}),
    ("ingest", "model", {"name": "forest"}),
    ("ingest", "model", {"name": "grnn", "sigma": "banana"}),
    ("train", "sweep", {"kind": "bogus"}),
    ("train", "features", {"grid_cellsize": "1e-320"}),
    ("train", "features", {"grid_padding": "1e300"}),
    ("train", "features", {"grid_padding": "1e308"}),
    ("gridmap", "features", {"grid_cellsize": "1e-7"}),
    ("gridmap", "features", {"grid_padding": "1e300"}),
    ("ingest", "corpus", {"dir": ""}),
    ("train", "corpus", {"tx_lat": str(synth.DEFAULT_RX.lat),
                         "tx_lon": str(synth.DEFAULT_RX.lon)}),
    ("ingest", "features", {"l": "1000000000"}),
]


@pytest.fixture(scope="module")
def ini_corpus_dir(tmp_path_factory):
    """The small scenario shortened to four days, so that the many runs a
    valid mutation makes stay cheap; synth regenerates it from its meta."""
    out = tmp_path_factory.mktemp("ini_corpus")
    cfg = dataclasses.replace(small_scenario_config(), duration_hours=96)
    synth.write_corpus(synth.generate_scenario(cfg), out)
    return out


def ini_text(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())


def ini_base(corpus_dir) -> dict:
    """A valid run config that gives every declared key a value."""
    cfg = small_scenario_config()
    return {
        "corpus": {"dir": str(corpus_dir), "min_samples_per_hour": "12",
                   "tx_lat": str(cfg.tx.lat), "tx_lon": str(cfg.tx.lon),
                   "rx_lat": str(cfg.rx.lat), "rx_lon": str(cfg.rx.lon)},
        "features": {"factors": "3", "location_mode": "receiver_only", "l": "16",
                     "grid_cellsize": "0.25", "grid_padding": "0.05"},
        "split": {"train": "2024-10-01..2024-10-03", "test": "2024-10-03..2024-10-05"},
        "model": {"name": "lasso_mpr", **MODEL_BASE["lasso_mpr"]},
        "synth": {"scenario": str(corpus_dir / "scenario.meta"), "seed": "7",
                  "noise_sd_ns": "5.0"},
        "correlate": {"r_min": "0.5", "p_max": "0.05"},
        "sweep": {"kind": "alpha", "holdout_fraction": "0.25"},
    }


def ini_mutations(base: dict) -> list[tuple[str, dict]]:
    """(label, sections) for each declared key set to each INI_VALUES entry: the
    keys of cli.SECTIONS, [model] name, and each kind's options under its name."""
    cases = []

    def put(section, key, value, model=None):
        sections = {name: dict(keys) for name, keys in base.items()}
        if model is not None:
            sections["model"] = {"name": model, **MODEL_BASE.get(model, {})}
        sections[section][key] = value
        cases.append((f"{section}.{key} = {value!r}" + (f" ({model})" if model else ""),
                      sections))

    for value in INI_VALUES:
        for section, config in cli.SECTIONS.items():
            for key in option_types(config):
                put(section, key, value)
        put("model", "name", value)
        for name in models.MODEL_NAMES:
            for key in option_types(models.KINDS[name].config):
                put("model", key, value, model=name)
    return cases


def ini_commands(tmp_path, config, artifact) -> dict:
    def out(name):
        return ["--out", str(tmp_path / name)]

    return {
        "synth": ["synth", "--config", config, *out("synth")],
        "ingest": ["ingest", "--config", config],
        "gridmap": ["gridmap", "--config", config, "--factor", "temperature_c",
                    "--epoch", "2024-10-02T00:00:00Z", *out("grid.csv")],
        "correlate": ["correlate", "--config", config, *out("corr.csv")],
        "train": ["train", "--config", config, *out("m.json")],
        "predict": ["predict", "--config", config, "--artifact", artifact, *out("p.csv")],
        "evaluate": ["evaluate", "--config", config, "--artifacts", artifact, *out("e.csv")],
        "sweep": ["sweep", "--config", config, *out("sweep.csv")],
    }


def ini_probe_sections(base, section, keys) -> dict:
    sections = {name: dict(values) for name, values in base.items()}
    sections[section] = keys if "name" in keys else {**sections[section], **keys}
    return sections


def ini_file_cases(base) -> list[tuple[str, bytes]]:
    text = ini_text(base)
    return [
        ("repeated key", text.replace("[sweep]\n", "[sweep]\nkind = degree\n").encode()),
        ("repeated section", (text + "[sweep]\nkind = alpha\n").encode()),
        ("unknown section", (text + "[extras]\nx = 1\n").encode()),
        ("DEFAULT section", (text + "[DEFAULT]\nx = 1\n").encode()),
        ("key before any section", ("kind = alpha\n" + text).encode()),
        ("non-UTF-8 byte", text.encode() + b"# \xff\n"),
    ]


def test_ini_mutations_cover_every_key(ini_corpus_dir):
    base = ini_base(ini_corpus_dir)
    assert {section: set(keys) for section, keys in base.items() if section != "model"} == {
        section: set(option_types(config)) for section, config in cli.SECTIONS.items()}
    labels = [label for label, _ in ini_mutations(base)]
    assert len(labels) == len(set(labels))
    declared = {f"{section}.{key}" for section, config in cli.SECTIONS.items()
                for key in option_types(config)}
    declared |= {"model.name"} | {f"model.{key}" for name in models.MODEL_NAMES
                                  for key in option_types(models.KINDS[name].config)}
    assert {label.split(" = ")[0] for label in labels} == declared


def test_every_ini_mutation_ends_in_a_documented_exit_from_every_command(
    tmp_path, ini_corpus_dir, monkeypatch, capsys
):
    """Each case runs in process through every command; the corpus, which
    no case changes, is parsed once, and the argument parser built once."""
    monkeypatch.setattr(cli, "load_corpus", functools.cache(cli.load_corpus))
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    base = ini_base(ini_corpus_dir)
    config = tmp_path / "run.ini"
    artifact = str(tmp_path / "grnn.json")
    config.write_text(ini_text({**base, "model": {"name": "grnn"}}), encoding="utf-8")
    assert main(["train", "--config", str(config), "--out", artifact]) == 0
    config.write_text(ini_text(base), encoding="utf-8")
    commands = ini_commands(tmp_path, str(config), artifact)
    for command, argv in commands.items():  # the base config is valid everywhere
        assert main(argv) == 0, (command, capsys.readouterr().err)

    def run(label, command, expect=None):
        # 4: a learning rate so large that the fit diverges is a numeric failure
        expect = expect or ((0, 2, 3, 4) if command == "train" else (0, 2, 3))
        try:
            code = main(commands[command])
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{label}: {command} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in expect and "Traceback" not in err, (label, command, code, err)

    for label, sections in ini_mutations(base):
        config.write_text(ini_text(sections), encoding="utf-8")
        for command in commands:
            run(label, command)
    for command, section, keys in INI_PROBES:
        config.write_text(ini_text(ini_probe_sections(base, section, keys)), encoding="utf-8")
        run(f"[{section}] {keys}", command, expect=(2,))
    for label, raw in ini_file_cases(base):
        config.write_bytes(raw)
        for command in commands:
            run(label, command, expect=(2,))


# a bad location mode, the two tracebacks of an overflowing grid, and a huge l
@pytest.mark.parametrize("command,section,keys", [INI_PROBES[i] for i in (0, 5, 7, 11)])
def test_ini_probe_console_exit_2_without_traceback(
    tmp_path, ini_corpus_dir, command, section, keys
):
    sections = ini_probe_sections(ini_base(ini_corpus_dir), section, keys)
    config = write_ini(tmp_path / "run.ini", ini_text(sections))
    assert_exit_2_without_traceback(ini_commands(tmp_path, config, "none.json")[command])


def test_non_utf8_config_console_exit_2_without_traceback(tmp_path, ini_corpus_dir):
    config = tmp_path / "run.ini"
    config.write_bytes(dict(ini_file_cases(ini_base(ini_corpus_dir)))["non-UTF-8 byte"])
    assert_exit_2_without_traceback(["ingest", "--config", str(config)])


# -- gridmap ---------------------------------------------------------------------


def test_gridmap_exports_grid(tmp_path, ini, capsys):
    out = tmp_path / "grid.csv"
    code = main(["gridmap", "--config", ini(), "--factor", "temperature_c",
                 "--epoch", "2024-10-05T00:00:00Z", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["lat", "lon", "value"]
    stdout = capsys.readouterr().out
    assert "5 assigned" in stdout
    nrows, ncols = (int(v) for v in stdout.split("grid: ")[1].split(" cells")[0].split(" x "))
    assert len(rows) == 1 + nrows * ncols


def test_gridmap_unknown_factor_exit_2(tmp_path, ini):
    assert main(["gridmap", "--config", ini(), "--factor", "warp_field",
                 "--epoch", "2024-10-05T00:00:00Z", "--out", str(tmp_path / "g.csv")]) == 2


def test_gridmap_malformed_epoch_exit_2(tmp_path, ini, capsys):
    assert main(["gridmap", "--config", ini(), "--factor", "temperature_c",
                 "--epoch", "yesterday", "--out", str(tmp_path / "g.csv")]) == 2
    assert "--epoch" in capsys.readouterr().err


# -- correlate --------------------------------------------------------------------


def test_correlate_selects_driving_factor(tmp_path, noiseless_corpus):
    cfg = write_ini(tmp_path / "run.ini", base_ini(noiseless_corpus))
    out = tmp_path / "corr.csv"
    assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
    rows = {r[0]: r for r in read_csv(out)[1:]}
    assert rows["temperature_c"][3] == "true"
    assert abs(float(rows["temperature_c"][1])) >= 0.99
    assert all(abs(float(rows["temperature_c"][1])) >= abs(float(r[1]))
               for r in rows.values())


def test_correlate_threshold_monotone(tmp_path, small_corpus_dir):
    selected = {}
    for r_min in ("0.1", "0.9"):
        cfg = write_ini(tmp_path / f"run{r_min}.ini",
                        base_ini(small_corpus_dir, f"[correlate]\nr_min = {r_min}\n"))
        out = tmp_path / f"corr{r_min}.csv"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
        selected[r_min] = {r[0] for r in read_csv(out)[1:] if r[3] == "true"}
    assert selected["0.9"] <= selected["0.1"]


def test_correlate_disjoint_epochs_exit_3(tmp_path, small_corpus_dir, capsys):
    shifted = tmp_path / "shifted"
    shifted.mkdir()
    for name in ("stations.csv", "weather.csv", "dem.asc", "scenario.meta"):
        (shifted / name).write_bytes((small_corpus_dir / name).read_bytes())
    with open(shifted / "td.csv", "w", encoding="utf-8") as fh:
        fh.write("timestamp,td_ns\n")
        for k in range(24):
            fh.write(f"2030-01-01T{k:02d}:00:00Z,100.0\n")
    cfg = write_ini(tmp_path / "run.ini",
                    base_ini(shifted, corpus_extra="min_samples_per_hour = 1\n"))
    assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 3
    assert "data error" in capsys.readouterr().err


# -- train -----------------------------------------------------------------------


def test_train_grnn_artifact_and_single_row_trace(tmp_path, ini, capsys):
    cfg = ini(f"[split]\ntrain = {TRAIN_RANGE}\ntest = {TEST_RANGE}\n")
    out = tmp_path / "grnn.json"
    assert main(["train", "--config", cfg, "--model", "grnn", "--out", str(out)]) == 0
    assert "converged=True" in capsys.readouterr().out
    model = load_model(out)
    assert type(model).__name__ == "GrnnModel"
    assert model.meta["n_train"] == 120
    trace = read_csv(str(out) + ".trace.csv")
    assert trace[0] == ["iteration", "loss"]
    assert len(trace) == 2  # non-iterative: exactly one trace row


def test_train_wlr_trace_eventually_decreases(tmp_path, ini):
    cfg = ini(
        f"[split]\ntrain = {TRAIN_RANGE}\n"
        "[model]\nname = wlr_agrnn\nmax_iterations = 40\nhidden = 4\n"
        "learning_rate = 0.02\n"
    )
    out = tmp_path / "wlr.json"
    trace_path = tmp_path / "wlr_trace.csv"
    assert main(["train", "--config", cfg, "--out", str(out),
                 "--trace", str(trace_path)]) == 0
    losses = [float(r[1]) for r in read_csv(trace_path)[1:]]
    assert len(losses) >= 2
    assert losses[-1] < losses[0]
    assert load_model(out).meta["n_train"] == 120


def test_train_double_run_byte_identical(tmp_path, ini):
    cfg = ini(f"[split]\ntrain = {TRAIN_RANGE}\n"
              "[model]\nname = bpnn\nmax_iterations = 10\nseed = 3\n")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (
        (tmp_path / "a.json.trace.csv").read_bytes()
        == (tmp_path / "b.json.trace.csv").read_bytes()
    )


def test_train_unknown_model_exit_2(tmp_path, ini):
    cfg = ini(f"[split]\ntrain = {TRAIN_RANGE}\n")
    assert main(["train", "--config", cfg, "--model", "forest",
                 "--out", str(tmp_path / "m.json")]) == 2


def test_train_without_split_exit_2(tmp_path, ini, capsys):
    assert main(["train", "--config", ini(), "--model", "grnn",
                 "--out", str(tmp_path / "m.json")]) == 2
    assert "split.train" in capsys.readouterr().err


def test_train_overlapping_split_exit_2(tmp_path, ini):
    cfg = ini("[split]\ntrain = 2024-10-01..2024-10-10\ntest = 2024-10-05..2024-10-12\n")
    assert main(["train", "--config", cfg, "--model", "grnn",
                 "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("test_split", ["", f"test = {TEST_RANGE}\n"])
def test_train_empty_range_exit_3(tmp_path, ini, capsys, test_split):
    cfg = ini("[split]\ntrain = 2030-01-01..2030-02-01\n" + test_split)
    assert main(["train", "--config", cfg, "--model", "grnn",
                 "--out", str(tmp_path / "m.json")]) == 3
    assert "no aligned epoch falls in the train ranges" in capsys.readouterr().err


@pytest.mark.parametrize("learning_rate", ["1e200", "1e300"])
@pytest.mark.parametrize("name", ["bpnn", "moe", "wlr_agrnn"])
def test_train_divergence_exit_4_without_numpy_warnings(tmp_path, ini, capsys, name,
                                                       learning_rate):
    """The suite turns RuntimeWarning into an error, so an overflow that
    numpy reports instead of the trainer fails here."""
    cfg = ini(f"[split]\ntrain = {TRAIN_RANGE}\n[model]\nname = {name}\n"
              f"learning_rate = {learning_rate}\nmax_iterations = 5\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 4
    err = capsys.readouterr().err
    assert "numeric error" in err and "Warning" not in err
    assert not (tmp_path / "m.json").exists()


# -- predict ---------------------------------------------------------------------


@pytest.fixture()
def grnn_artifact(tmp_path, ini):
    cfg = ini(f"[split]\ntrain = {TRAIN_RANGE}\n")
    out = tmp_path / "grnn.json"
    assert main(["train", "--config", cfg, "--model", "grnn", "--out", str(out)]) == 0
    return out


def test_predict_training_epochs_low_residuals(
    tmp_path, ini, grnn_artifact, small_scenario
):
    out = tmp_path / "pred.csv"
    assert main(["predict", "--config", ini(), "--artifact", str(grnn_artifact),
                 "--range", TRAIN_RANGE, "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    assert len(rows) == 120
    truth_by_epoch = dict(zip(small_scenario.epochs, small_scenario.hourly_td))
    pred = np.array([float(v) for _, v in rows])
    actual = np.array([truth_by_epoch[EpochHour.parse(ts)] for ts, _ in rows])
    resid_rmse = float(np.sqrt(np.mean((pred - actual) ** 2)))
    # a lazy learner re-fed its own bank should sit well under the TD spread
    assert resid_rmse < 0.8 * float(actual.std())


def test_predict_empty_range_header_only(tmp_path, ini, grnn_artifact, capsys):
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    assert main(["predict", "--config", ini(), "--artifact", str(grnn_artifact),
                 "--range", "2030-01-01..2030-01-02", "--out", str(out)]) == 0
    assert out.read_bytes() == b"timestamp,td_pred_ns\r\n"
    assert "predicted 0 epochs with grnn artifact" in capsys.readouterr().out


@pytest.mark.parametrize("model", ["grnn", "wlr_agrnn"])
def test_predict_empty_range_checks_axes_then_writes_header_only(
    tmp_path, small_corpus_dir, capsys, model
):
    """A range with no epoch still checks the artifact against the features:
    trained with l = 8 path points, the artifact is refused at l = 4."""
    options = "[model]\nmax_iterations = 2\n" if model == "wlr_agrnn" else ""

    def config(l):
        features = base_ini(small_corpus_dir).replace("receiver_only", f"path\nl = {l}")
        return write_ini(tmp_path / f"l{l}.ini",
                         f"{features}[split]\ntrain = {TRAIN_RANGE}\n{options}")

    artifact, out = tmp_path / "m.json", tmp_path / "pred.csv"
    assert main(["train", "--config", config(8), "--model", model, "--out", str(artifact)]) == 0
    empty = ["--artifact", str(artifact), "--range", "2030-01-01..2030-01-02", "--out", str(out)]
    assert main(["predict", "--config", config(8), *empty]) == 0
    assert out.read_bytes() == b"timestamp,td_pred_ns\r\n"
    out.unlink()
    capsys.readouterr()
    assert main(["predict", "--config", config(4), *empty]) == 5
    assert "compatibility error" in capsys.readouterr().err
    assert not out.exists()


def test_predict_factor_mismatch_exit_5(tmp_path, small_corpus_dir, grnn_artifact, capsys):
    cfg = write_ini(
        tmp_path / "two.ini",
        f"[corpus]\ndir = {small_corpus_dir}\n"
        "[features]\nfactors = temperature_c,humidity_pct\nlocation_mode = receiver_only\n",
    )
    assert main(["predict", "--config", cfg, "--artifact", str(grnn_artifact),
                 "--range", TRAIN_RANGE, "--out", str(tmp_path / "p.csv")]) == 5
    assert "compatibility error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value", [("location_mode", 5), ("location_mode", "bogus"), ("meta", [["x", 1]])]
)
def test_predict_malformed_artifact_header_exit_3(tmp_path, ini, grnn_artifact, capsys,
                                                  key, value):
    doc = json.loads(grnn_artifact.read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, key: value}), encoding="utf-8")
    assert main(["predict", "--config", ini(), "--artifact", str(bad),
                 "--range", TRAIN_RANGE, "--out", str(tmp_path / "p.csv")]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and f"artifact.{key}" in err
    assert not (tmp_path / "p.csv").exists()


def test_predict_without_range_exit_2(tmp_path, ini, grnn_artifact):
    assert main(["predict", "--config", ini(), "--artifact", str(grnn_artifact),
                 "--out", str(tmp_path / "p.csv")]) == 2


# -- evaluate --------------------------------------------------------------------


def test_evaluate_perfect_and_constant(tmp_path, ini, small_corpus_dir):
    """Trained on the test range itself: a GRNN whose tiny sigma predicts each
    of its own epochs exactly, and a lasso whose huge alpha predicts the mean."""
    corpus_td = aggregate_hourly(parse_td_csv(small_corpus_dir / "td.csv"), 12)
    lo, hi = EpochHour.of(2024, 10, 15), EpochHour.of(2024, 10, 21)
    td = np.array([v for e, v in zip(corpus_td.epochs, corpus_td.values) if lo <= e < hi])
    perfect, mean_model = tmp_path / "perfect.json", tmp_path / "mean.json"
    for artifact, model in ((perfect, "name = grnn\nsigma = 1e-6\n"),
                            (mean_model, "name = lasso_mpr\ndegree = 1\nalpha = 1e12\n")):
        cfg = ini(f"[split]\ntrain = {TEST_RANGE}\n[model]\n{model}")
        assert main(["train", "--config", cfg, "--out", str(artifact)]) == 0

    cfg = ini(f"[split]\ntest = {TEST_RANGE}\n")
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--config", cfg, "--artifacts", str(perfect),
                 str(mean_model), "--out", str(out)]) == 0
    rows = {r[0]: r for r in read_csv(out)[1:] if len(r) == 7}
    assert float(rows["perfect"][4]) == 0.0
    assert float(rows["perfect"][5]) == 0.0
    assert float(rows["mean"][4]) == pytest.approx(float(td.std()), abs=1e-9)
    assert rows["mean"][2] == "pressure_hpa|humidity_pct|temperature_c"
    assert rows["mean"][3] == "receiver_only"
    assert rows["mean"][6] == "144"


def test_evaluate_identical_artifacts_anova(tmp_path, ini, grnn_artifact):
    twin = tmp_path / "twin.json"
    twin.write_bytes(grnn_artifact.read_bytes())
    cfg = ini("[split]\ntest = 2024-10-07..2024-10-28\n")
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--config", cfg, "--artifacts", str(grnn_artifact),
                 str(twin), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    marker = [i for i, line in enumerate(lines) if line.startswith("#")]
    assert marker, "expected an ANOVA block for two models over three folds"
    f_stat, p_value = (float(v) for v in lines[marker[0] + 2].split(",")[:2])
    assert f_stat == pytest.approx(0.0, abs=1e-12)
    assert p_value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("train_split", ["", f"train = {TRAIN_RANGE}\n"])
def test_evaluate_empty_test_range_exit_3(tmp_path, ini, grnn_artifact, capsys, train_split):
    cfg = ini("[split]\ntest = 2030-01-01..2030-02-01\n" + train_split)
    assert main(["evaluate", "--config", cfg, "--artifacts", str(grnn_artifact),
                 "--out", str(tmp_path / "e.csv")]) == 3
    assert "no aligned epoch falls in the test ranges" in capsys.readouterr().err


def test_evaluate_without_test_split_exit_2(tmp_path, ini, grnn_artifact):
    assert main(["evaluate", "--config", ini(), "--artifacts", str(grnn_artifact),
                 "--out", str(tmp_path / "e.csv")]) == 2


# -- sweep -----------------------------------------------------------------------


def sweep_twice(cfg, kind, out, svg=None) -> None:
    """Run a sweep twice; the second run must rewrite the same bytes."""
    outputs = [out] + ([svg] if svg else [])
    first = None
    for _ in range(2):
        assert main(["sweep", "--config", cfg, "--kind", kind, "--out", str(out)]
                    + (["--svg", str(svg)] if svg else [])) == 0
        again = [path.read_bytes() for path in outputs]
        assert first is None or again == first
        first = again


def test_sweep_alpha_grid_includes_half(tmp_path, ini):
    cfg = ini("[model]\nname = lasso_mpr\ndegree = 2\n")
    out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    sweep_twice(cfg, "alpha", out, svg)
    rows = read_csv(out)
    assert rows[0] == ["alpha", "rmse_ns"]
    alphas = [float(r[0]) for r in rows[1:]]
    assert 0.5 in alphas
    assert alphas == sorted(alphas)
    assert svg.read_text(encoding="utf-8").startswith("<svg")


def test_sweep_degree_runs(tmp_path, ini):
    cfg = ini("[model]\nname = lasso_mpr\nalpha = 0.5\n"
              f"[split]\ntrain = 2024-10-01..2024-10-11\n")
    out, svg = tmp_path / "degrees.csv", tmp_path / "degrees.svg"
    sweep_twice(cfg, "degree", out, svg)
    rows = read_csv(out)
    assert rows[0] == ["degree", "rmse_ns"]
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5]
    assert all(np.isfinite(float(r[1])) for r in rows[1:])


def test_sweep_honours_model_tol_and_max_sweeps(tmp_path, ini):
    outputs = {}
    for label, extra in (("default", ""), ("one_sweep", "max_sweeps = 1\n"),
                         ("loose", "tol = 1e3\n")):
        cfg = ini(f"[model]\nname = lasso_mpr\ndegree = 2\n{extra}")
        outputs[label] = tmp_path / f"{label}.csv"
        assert main(["sweep", "--config", cfg, "--kind", "alpha",
                     "--out", str(outputs[label])]) == 0
    default = outputs["default"].read_bytes()
    assert outputs["one_sweep"].read_bytes() != default
    assert outputs["loose"].read_bytes() != default


@pytest.mark.parametrize("model, command", [
    ("name = lasso_mpr\ndegree = 3\n", ["sweep", "--kind", "alpha"]),
    ("name = grnn\n[split]\ntrain = 2024-10-01..2024-10-21\n", ["train"]),
], ids=["lasso_sweep", "grnn_train"])
def test_sweep_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, ini, model, command):
    """The alpha sweep's lanes share matrix products whose BLAS may split
    them over threads; the CSV must not change with the thread count.  A
    GRNN's sigma is set by comparing leave-one-out sums, which round with
    the thread count in their last digits (so its trace CSV may differ),
    and its artifact must not change either."""
    cfg = ini(f"[model]\n{model}")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        proc = console([command[0], "--config", cfg, *command[1:], "--out", str(out)],
                       OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_a_library_warning_is_one_line_without_a_source_path(tmp_path, small_corpus_dir):
    """48 path inputs at degree 2 give 1225 lasso coefficients for fewer
    training epochs: train and the alpha sweep each warn, and exit 0."""
    cfg = write_ini(tmp_path / "run.ini", base_ini(small_corpus_dir).replace(
        "receiver_only", "path\nl = 16") + f"[split]\ntrain = {TRAIN_RANGE}\n"
        "[model]\nname = lasso_mpr\ndegree = 2\nmax_sweeps = 2\n")
    for argv in (["train", "--config", cfg, "--out", str(tmp_path / "m.json")],
                 ["sweep", "--config", cfg, "--kind", "alpha",
                  "--out", str(tmp_path / "s.csv")]):
        proc = console(argv)
        assert proc.returncode == 0, proc.stderr
        warned = [line for line in proc.stderr.splitlines() if line.startswith("warning: ")]
        assert len(warned) == 1 and "1225 coefficients" in warned[0], proc.stderr
        assert ".py:" not in proc.stderr


def test_sweep_requires_lasso_config_exit_2(tmp_path, ini, capsys):
    assert main(["sweep", "--config", ini(), "--kind", "alpha",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "lasso_mpr" in capsys.readouterr().err
