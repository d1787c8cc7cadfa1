import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elorantd
from elorantd import synth
from elorantd.artifacts import ConstantModel, LookupModel, load_model, save_model
from elorantd.cli import main
from elorantd.ingest import aggregate_hourly, parse_td_csv
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


def assert_exit_2_without_traceback(argv):
    """Run as a subprocess so a traceback is visible and a hang is bounded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(elorantd.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "elorantd.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr
    assert "Traceback" not in proc.stderr


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
    ],
)
def test_invalid_synth_settings_exit_2_without_traceback(tmp_path, section, flags):
    cfg = write_ini(tmp_path / "bad.ini", f"[synth]\nscenario = cubic\n{section}")
    out = tmp_path / "corpus"
    assert_exit_2_without_traceback(["synth", "--config", cfg, *flags, "--out", str(out)])
    assert not out.exists()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numeric_blowup_exit_4(tmp_path, ini, capsys):
    cfg = ini(f"[split]\ntrain = {TRAIN_RANGE}\n"
              "[model]\nname = bpnn\nlearning_rate = 1e200\nmax_iterations = 5\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 4
    assert "numeric error" in capsys.readouterr().err


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


def test_predict_empty_range_header_only(tmp_path, ini, grnn_artifact):
    out = tmp_path / "pred.csv"
    assert main(["predict", "--config", ini(), "--artifact", str(grnn_artifact),
                 "--range", "2030-01-01..2030-01-02", "--out", str(out)]) == 0
    assert out.read_bytes() == b"timestamp,td_pred_ns\r\n"


def test_predict_factor_mismatch_exit_5(tmp_path, small_corpus_dir, grnn_artifact, capsys):
    cfg = write_ini(
        tmp_path / "two.ini",
        f"[corpus]\ndir = {small_corpus_dir}\n"
        "[features]\nfactors = temperature_c,humidity_pct\nlocation_mode = receiver_only\n",
    )
    assert main(["predict", "--config", cfg, "--artifact", str(grnn_artifact),
                 "--range", TRAIN_RANGE, "--out", str(tmp_path / "p.csv")]) == 5
    assert "compatibility error" in capsys.readouterr().err


def test_predict_without_range_exit_2(tmp_path, ini, grnn_artifact):
    assert main(["predict", "--config", ini(), "--artifact", str(grnn_artifact),
                 "--out", str(tmp_path / "p.csv")]) == 2


# -- evaluate --------------------------------------------------------------------


def test_evaluate_perfect_and_constant(tmp_path, ini, small_corpus_dir):
    corpus_td = aggregate_hourly(parse_td_csv(small_corpus_dir / "td.csv"), 12)
    lo, hi = EpochHour.of(2024, 10, 15), EpochHour.of(2024, 10, 21)
    span = [(e, float(v)) for e, v in zip(corpus_td.epochs, corpus_td.values) if lo <= e < hi]
    td = np.array([v for _, v in span])
    perfect = tmp_path / "perfect.json"
    save_model(LookupModel(table=dict(span)), perfect)
    mean_model = tmp_path / "mean.json"
    save_model(ConstantModel(value=float(td.mean())), mean_model)

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


def test_evaluate_identical_artifacts_anova(tmp_path, ini):
    artifact = tmp_path / "const.json"
    save_model(ConstantModel(value=150.0), artifact)
    twin = tmp_path / "twin.json"
    twin.write_bytes(artifact.read_bytes())
    cfg = ini("[split]\ntest = 2024-10-01..2024-10-21\n")
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--config", cfg, "--artifacts", str(artifact),
                 str(twin), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    marker = [i for i, line in enumerate(lines) if line.startswith("#")]
    assert marker, "expected an ANOVA block for two models over three folds"
    f_stat, p_value = (float(v) for v in lines[marker[0] + 2].split(",")[:2])
    assert f_stat == pytest.approx(0.0, abs=1e-12)
    assert p_value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("train_split", ["", f"train = {TRAIN_RANGE}\n"])
def test_evaluate_empty_test_range_exit_3(tmp_path, ini, capsys, train_split):
    artifact = tmp_path / "const.json"
    save_model(ConstantModel(value=0.0), artifact)
    cfg = ini("[split]\ntest = 2030-01-01..2030-02-01\n" + train_split)
    assert main(["evaluate", "--config", cfg, "--artifacts", str(artifact),
                 "--out", str(tmp_path / "e.csv")]) == 3
    assert "no aligned epoch falls in the test ranges" in capsys.readouterr().err


def test_evaluate_without_test_split_exit_2(tmp_path, ini):
    artifact = tmp_path / "const.json"
    save_model(ConstantModel(value=0.0), artifact)
    assert main(["evaluate", "--config", ini(), "--artifacts", str(artifact),
                 "--out", str(tmp_path / "e.csv")]) == 2


# -- sweep -----------------------------------------------------------------------


def test_sweep_alpha_grid_includes_half(tmp_path, ini):
    cfg = ini("[model]\nname = lasso_mpr\ndegree = 2\n")
    out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    assert main(["sweep", "--config", cfg, "--kind", "alpha",
                 "--out", str(out), "--svg", str(svg)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["alpha", "rmse_ns"]
    alphas = [float(r[0]) for r in rows[1:]]
    assert 0.5 in alphas
    assert alphas == sorted(alphas)
    assert svg.read_text(encoding="utf-8").startswith("<svg")


def test_sweep_degree_runs(tmp_path, ini):
    cfg = ini("[model]\nname = lasso_mpr\nalpha = 0.5\n"
              f"[split]\ntrain = 2024-10-01..2024-10-11\n")
    out = tmp_path / "degrees.csv"
    assert main(["sweep", "--config", cfg, "--kind", "degree", "--out", str(out)]) == 0
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


def test_sweep_requires_lasso_config_exit_2(tmp_path, ini, capsys):
    assert main(["sweep", "--config", ini(), "--kind", "alpha",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "lasso_mpr" in capsys.readouterr().err
