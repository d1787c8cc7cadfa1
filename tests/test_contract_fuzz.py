"""Seeded mutations of the corpus files against the exit-code contract.

Each mutation changes one field of stations.csv, weather.csv, td.csv or
dem.asc, or duplicates, drops or truncates one of its lines.  Every case
runs through ``ingest`` and ``train --model grnn``; each must end in exit
0, 2 or 3, with no traceback, and a DEM elevation of +-1e308 m, outside
the plausible range, in exit 3.  (scenario.meta has its own mutation test
in test_cli.py, the INI file its own too.)
"""
import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import elorantd
from elorantd import ingest, synth
from elorantd.cli import main
from tests.conftest import small_scenario_config

SEED = 20241001
FILES = ("stations.csv", "weather.csv", "td.csv", "dem.asc")
TIMESTAMP_FIELD = {"weather.csv": 1, "td.csv": 0}
BAD_TIMESTAMP = "2024-02-30T25:00:00Z"
FIELD_VALUES = ("", "nan", "inf", "-inf", "1e308", "-1e308", "warp", "0", "-1", "1e-320",
                BAD_TIMESTAMP)
LINE_OPS = ("duplicate", "drop", "truncate")
FIELD_PICKS = 2  # random positions per (file, value)
LINE_PICKS = 5  # random lines per (file, operation)
EXITS = (0, 2, 3)


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """The small scenario shortened to four days, and each file's text."""
    out = tmp_path_factory.mktemp("fuzz_corpus")
    cfg = dataclasses.replace(small_scenario_config(), duration_hours=96)
    synth.write_corpus(synth.generate_scenario(cfg), out)
    texts = {name: (out / name).read_bytes().decode("utf-8") for name in FILES}
    return out, texts


def _fields(name: str, line: str) -> list[str]:
    return line.split() if name == "dem.asc" else line.split(",")


def _join(name: str, fields: list[str]) -> str:
    return (" " if name == "dem.asc" else ",").join(fields)


def corpus_mutations(texts: dict, seed: int = SEED) -> list[tuple[str, str, str]]:
    """(label, file name, mutated text), in a fixed order for a fixed seed."""
    rng = random.Random(seed)
    cases = []
    for name in FILES:
        text = texts[name]
        newline = "\r\n" if "\r\n" in text else "\n"
        lines = text.split(newline)[:-1]  # every line ends in a newline

        def put(label, new_lines):
            cases.append((f"{name}: {label}", name, newline.join(new_lines) + newline))

        for value in FIELD_VALUES:
            for _ in range(FIELD_PICKS):
                i = rng.randrange(len(lines))
                fields = _fields(name, lines[i])
                j = rng.randrange(len(fields))
                if value == BAD_TIMESTAMP and i > 0 and name in TIMESTAMP_FIELD:
                    j = TIMESTAMP_FIELD[name]
                fields[j] = value
                put(f"line {i + 1} field {j} = {value!r}",
                    lines[:i] + [_join(name, fields)] + lines[i + 1:])
        for op in LINE_OPS:
            for _ in range(LINE_PICKS):
                i = rng.randrange(len(lines))
                if op == "duplicate":
                    new = lines[:i + 1] + lines[i:]
                elif op == "drop":
                    new = lines[:i] + lines[i + 1:]
                else:
                    new = lines[:i] + [lines[i][:rng.randrange(len(lines[i]))]] + lines[i + 1:]
                put(f"{op} line {i + 1}", new)
    return cases


def fuzz_ini(tmp_path, corpus_dir) -> str:
    path = tmp_path / "run.ini"
    path.write_text(
        f"[corpus]\ndir = {corpus_dir}\n"
        "[features]\nfactors = 3\nlocation_mode = path\nl = 8\n"
        "[split]\ntrain = 2024-10-01..2024-10-03\n",
        encoding="utf-8",
    )
    return str(path)


def commands(config: str, out: Path) -> dict[str, list[str]]:
    return {"ingest": ["ingest", "--config", config],
            "train": ["train", "--config", config, "--model", "grnn", "--out", str(out)]}


def test_corpus_mutations_are_seeded_and_cover_every_file(fuzz_corpus):
    _, texts = fuzz_corpus
    cases = corpus_mutations(texts)
    assert cases == corpus_mutations(texts)
    assert len(cases) == len(FILES) * (len(FIELD_VALUES) * FIELD_PICKS
                                       + len(LINE_OPS) * LINE_PICKS)
    for name in FILES:
        labels = [label for label, file, _ in cases if file == name]
        assert any("= ''" in label for label in labels)
        assert any(label.startswith(f"{name}: truncate") for label in labels)
    assert all(text != texts[name] for _, name, text in cases)  # no case is a no-op


def test_every_corpus_mutation_ends_in_a_documented_exit(
    tmp_path, fuzz_corpus, monkeypatch, capsys
):
    """In process through ingest and train --model grnn; the td.csv cases
    must reach both the bulk reader and the row loop."""
    source, texts = fuzz_corpus
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in (*FILES, "scenario.meta"):
        (corpus / name).write_bytes((source / name).read_bytes())
    argvs = commands(fuzz_ini(tmp_path, corpus), tmp_path / "m.json")
    for command, argv in argvs.items():  # the unmutated corpus works everywhere
        assert main(argv) == 0, (command, capsys.readouterr().err)

    bulk = []

    def spy(path):
        samples = read_td_fixed(path)
        bulk.append(samples is not None)
        return samples

    read_td_fixed = ingest._read_td_fixed
    monkeypatch.setattr(ingest, "_read_td_fixed", spy)
    td_reads = {True: 0, False: 0}
    for label, name, text in corpus_mutations(texts):
        (corpus / name).write_bytes(text.encode("utf-8"))
        for command, argv in argvs.items():
            bulk.clear()
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - any escape is the failure
                pytest.fail(f"{label}: {command} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in EXITS and "Traceback" not in err, (label, command, code, err)
            if name == "dem.asc" and label.endswith("1e308'"):  # out of the elevation range
                assert code == 3, (label, command, err)
            if name == "td.csv":
                for went_bulk in bulk:
                    td_reads[went_bulk] += 1
        (corpus / name).write_bytes(texts[name].encode("utf-8"))
    assert td_reads[True] and td_reads[False], td_reads


# one case per file as a console subprocess, where a real traceback, a
# crash or a hang shows; the td.csv one once crashed numpy's datetime cast
CONSOLE_CASES = (("stations.csv", "drop"), ("weather.csv", "duplicate"),
                 ("td.csv", BAD_TIMESTAMP), ("dem.asc", "truncate"))


@pytest.mark.parametrize("file,part", CONSOLE_CASES)
def test_corpus_mutation_console_exit_without_traceback(tmp_path, fuzz_corpus, file, part):
    source, texts = fuzz_corpus
    label, name, text = next(case for case in corpus_mutations(texts)
                             if case[1] == file and part in case[0])
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for fname in (*FILES, "scenario.meta"):
        (corpus / fname).write_bytes((source / fname).read_bytes())
    (corpus / name).write_bytes(text.encode("utf-8"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(elorantd.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    argv = commands(fuzz_ini(tmp_path, corpus), tmp_path / "m.json")["train"]
    proc = subprocess.run([sys.executable, "-m", "elorantd.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode in EXITS, (label, proc.stderr)
    assert "Traceback" not in proc.stderr and ".py:" not in proc.stderr, (label, proc.stderr)
