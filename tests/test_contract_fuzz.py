"""Seeded mutations of the corpus files against the exit-code contract.

Each mutation changes one field of stations.csv, weather.csv, td.csv or
dem.asc, duplicates, drops or truncates one of its lines, or puts a byte
that is not UTF-8 into one.  Every case runs through ``ingest`` and
``train --model grnn``; each must end in exit 0, 2 or 3, with no
traceback, and a DEM elevation of +-1e308 m, outside the plausible range,
or a non-UTF-8 byte in exit 3.  (scenario.meta has its own mutation test
in test_cli.py, the INI file its own too.)
"""
import copy
import csv
import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import elorantd
from elorantd import ingest, synth
from elorantd.artifacts import load_model, model_document
from elorantd.cli import main
from tests.conftest import array_bytes, is_encoded_array, small_scenario_config, with_entry

SEED = 20241001
FILES = ("stations.csv", "weather.csv", "td.csv", "dem.asc")
TIMESTAMP_FIELD = {"weather.csv": 1, "td.csv": 0}
BAD_TIMESTAMP = "2024-02-30T25:00:00Z"
FIELD_VALUES = ("", "nan", "inf", "-inf", "1e308", "-1e308", "warp", "0", "-1", "1e-320",
                BAD_TIMESTAMP)
LINE_OPS = ("duplicate", "drop", "truncate")
NON_UTF8 = b"\xff"  # never valid in UTF-8
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


def corpus_mutations(texts: dict, seed: int = SEED) -> list[tuple[str, str, bytes]]:
    """(label, file name, mutated bytes), in a fixed order for a fixed seed."""
    rng = random.Random(seed)
    cases = []
    for name in FILES:
        text = texts[name]
        newline = "\r\n" if "\r\n" in text else "\n"
        lines = text.split(newline)[:-1]  # every line ends in a newline

        def put(label, new_lines):
            cases.append((f"{name}: {label}", name,
                          (newline.join(new_lines) + newline).encode("utf-8")))

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
    for name in FILES:  # drawn after the text cases, which stay as they were
        lines = texts[name].encode("utf-8").splitlines(keepends=True)
        i = rng.randrange(len(lines))
        j = rng.randrange(len(lines[i]))
        lines[i] = lines[i][:j] + NON_UTF8 + lines[i][j:]
        cases.append((f"{name}: non-UTF-8 byte in line {i + 1}", name, b"".join(lines)))
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
                                       + len(LINE_OPS) * LINE_PICKS + 1)
    for name in FILES:
        labels = [label for label, file, _ in cases if file == name]
        assert any("= ''" in label for label in labels)
        assert any(label.startswith(f"{name}: truncate") for label in labels)
        assert any("non-UTF-8" in label for label in labels)
    assert all(data != texts[name].encode("utf-8") for _, name, data in cases)  # no no-op


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
    for label, name, data in corpus_mutations(texts):
        (corpus / name).write_bytes(data)
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
            if "non-UTF-8" in label:  # reported at the byte's line
                line = label.rpartition(" ")[2]
                assert code == 3 and f"{name}:{line}: byte 0xff" in err, (label, command, err)
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
    label, name, data = next(case for case in corpus_mutations(texts)
                             if case[1] == file and part in case[0])
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for fname in (*FILES, "scenario.meta"):
        (corpus / fname).write_bytes((source / fname).read_bytes())
    (corpus / name).write_bytes(data)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(elorantd.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    argv = commands(fuzz_ini(tmp_path, corpus), tmp_path / "m.json")["train"]
    proc = subprocess.run([sys.executable, "-m", "elorantd.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode in EXITS, (label, proc.stderr)
    assert "Traceback" not in proc.stderr and ".py:" not in proc.stderr, (label, proc.stderr)


# -- artifacts -------------------------------------------------------------------
# Seeded mutations of a saved artifact of each kind.  Every field of the
# document, header and payload, is set to two of the values below, taken
# in turn from a shuffled cycle, so each kind meets every value; every
# list is also cut short and grown by one entry.  A list's entries count
# as one field, and each case changes one entry at random.  An array is
# saved as {"shape": [...], "b64": <its little-endian float64 bytes>}, so
# its shape and b64 are fields too, and each of ARRAY_CHANGES is made
# inside one array at random; an entry of an array declared positive is
# also set to a subnormal, and an entry of every array to +-1e308.
# Whole-file cases cut the file short, replace it with text that is not
# JSON, or put a non-UTF-8 byte in it.  The committed elorantd.model/1
# artifacts, whose arrays are nested JSON lists, get a ragged row, a string
# entry and an integer too large for a float.  Every case runs through
# predict and evaluate and must end in exit 0, 3 or 5 with no traceback; a
# file that is not a JSON document in exit 3, and so does each array case
# but the +-1e308 ones, each /1 case and each of EXIT_3_FIELDS.  An exit 0
# writes only finite numbers: an artifact whose predictions overflow exits 3,
# and so does evaluate when their errors do; +-1e308 reaches one in each kind.

ARTIFACT_KINDS = {"lasso_mpr": "degree = 1\n", "wlr_agrnn": "max_iterations = 3\n",
                  "bpnn": "max_iterations = 3\n", "grnn": "", "moe": "max_iterations = 3\n"}
ARTIFACT_VALUES = ("", math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320,
                   "warp", True, None, {}, [])
VALUES_PER_FIELD = 2
CUTS = 3  # truncations per kind
ARTIFACT_EXITS = (0, 3, 5)
# (kind, field, value) that loads, yet sends every query to the
# nearest-column fallback: one bank target for every epoch; the field's
# last step is the index of an entry of an encoded array
EXIT_3_FIELDS = (("grnn", ("payload", "standardizer", "sd", 0), 1e-300),)


def _entry(value):
    """A change that sets a random entry of an encoded array to value."""
    return lambda node, rng: with_entry(node, rng.randrange(len(array_bytes(node)) // 8), value)


def _b64_char(node, rng):  # "-" is URL-safe base64, outside the standard alphabet
    i = rng.randrange(len(node["b64"]))
    return {**node, "b64": node["b64"][:i] + "-" + node["b64"][i + 1:]}


def _b64_cut(node, rng):
    return {**node, "b64": node["b64"][:rng.randrange(len(node["b64"]))]}


def _shape_first(change):
    return lambda node, rng: {**node, "shape": [change(node["shape"][0]), *node["shape"][1:]]}


# label -> change(encoded array, rng); each is made in one random array per kind
ARRAY_CHANGES = {
    "b64 character = '-'": _b64_char,
    "b64 cut short": _b64_cut,
    "shape[0] + 1": _shape_first(lambda n: n + 1),  # disagrees with the byte count
    "shape[0] = 2**61": _shape_first(lambda n: 2 ** 61),  # 8 x its product passes 2**63
    "entry = nan": _entry(math.nan),
    "entry = inf": _entry(math.inf),
}
SUBNORMAL = 1e-320  # set in every array declared positive
POSITIVE_ARRAYS = ("sigmas", "sd")  # the last key of each such array's path
ARRAY_LABELS = (*ARRAY_CHANGES, f"entry = {SUBNORMAL!r}")  # each must exit 3
# set in every array: such an artifact loads, and its predictions may overflow
HUGE = (1e308, -1e308)
HUGE_LABELS = tuple(f"entry = {value!r}" for value in HUGE)


def field_label(kind: str, path: tuple, value) -> str:
    return f"{kind}: {'.'.join(map(str, path))} = {value!r}"


def artifact_ini(path: Path, corpus_dir, extra: str = "") -> str:
    path.write_text(
        f"[corpus]\ndir = {corpus_dir}\n"
        "[features]\nfactors = 3\nlocation_mode = path\nl = 8\n"
        "[split]\ntrain = 2024-10-01..2024-10-03\ntest = 2024-10-03..2024-10-05\n" + extra,
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="module")
def saved_artifacts(fuzz_corpus, tmp_path_factory):
    """The bytes of an artifact of each kind trained on the fuzz corpus."""
    source, _ = fuzz_corpus
    out = tmp_path_factory.mktemp("artifacts")
    saved = {}
    for kind, options in ARTIFACT_KINDS.items():
        config = artifact_ini(out / f"{kind}.ini", source, f"[model]\nname = {kind}\n{options}")
        assert main(["train", "--config", config, "--out", str(out / f"{kind}.json")]) == 0
        saved[kind] = (out / f"{kind}.json").read_bytes()
    return saved


def _fields_of(node, path=()):
    """(path, value) of every field of a JSON document; a list's entries are
    one field, "*" in the path, and its first entry stands for them."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _fields_of(value, path + (key,))
    elif isinstance(node, list) and node:
        yield from _fields_of(node[0], path + ("*",))


def _mutated(doc, path, rng, change) -> bytes:
    """doc as JSON bytes with the field at path (a random entry for each
    "*") replaced by change(its value); doc itself is left as it was."""
    if not path:
        return json.dumps(change(doc)).encode("utf-8")
    parent = doc
    for key in path[:-1]:
        parent = parent[rng.randrange(len(parent)) if key == "*" else key]
    key = rng.randrange(len(parent)) if path[-1] == "*" else path[-1]
    old = parent[key]
    parent[key] = change(old)
    try:
        return json.dumps(doc).encode("utf-8")
    finally:
        parent[key] = old


LENGTH_CHANGES = {"one entry shorter": lambda old: old[:-1],
                  "one entry longer": lambda old: old + old[-1:]}


def artifact_mutations(saved: dict, seed: int = SEED) -> list[tuple[str, bytes]]:
    """(label, mutated artifact bytes), in a fixed order for a fixed seed."""
    rng = random.Random(seed)
    cases = []
    for kind, data in saved.items():
        doc = json.loads(data)
        values = list(ARTIFACT_VALUES)
        rng.shuffle(values)
        cycle = itertools.cycle(values)
        for path, value in _fields_of(doc):
            where = ".".join(path) or "document"
            changes = {f"= {new!r}": (lambda _, new=new: new)
                       for new in itertools.islice(cycle, VALUES_PER_FIELD)}
            if isinstance(value, list):
                changes.update(LENGTH_CHANGES)
            for label, change in changes.items():
                cases.append((f"{kind}: {where} {label}", _mutated(doc, path, rng, change)))
        for _ in range(CUTS):
            cut = rng.randrange(len(data))
            cases.append((f"{kind}: cut at byte {cut}", data[:cut]))
        cases.append((f"{kind}: not JSON", b"schema: elorantd.model/2\n"))
        at = rng.randrange(len(data))
        cases.append((f"{kind}: non-UTF-8 byte at {at}", data[:at] + NON_UTF8 + data[at:]))
    for kind, data in saved.items():  # drawn after the cases above, so these move none of theirs
        doc = json.loads(data)
        arrays = _arrays_of(doc)
        for label, change in ARRAY_CHANGES.items():
            path = arrays[rng.randrange(len(arrays))]
            cases.append((f"{kind}: {'.'.join(path)} {label}",
                          _mutated(doc, path, rng, lambda node, c=change: c(node, rng))))
        for path in arrays:
            if path[-1] in POSITIVE_ARRAYS:
                cases.append((f"{kind}: {'.'.join(path)} {ARRAY_LABELS[-1]}",
                              _mutated(doc, path, rng, lambda node: _entry(SUBNORMAL)(node, rng))))
        for path in arrays:
            for value, label in zip(HUGE, HUGE_LABELS):
                cases.append((f"{kind}: {'.'.join(path)} {label}",
                              _mutated(doc, path, rng, lambda node, v=value: _entry(v)(node, rng))))
    for kind, path, value in EXIT_3_FIELDS:
        cases.append((field_label(kind, path, value),
                      _mutated(json.loads(saved[kind]), path[:-1], rng,
                               lambda node, i=path[-1], new=value: with_entry(node, i, new))))
    return cases


def _arrays_of(doc) -> list[tuple]:
    """The paths of a document's encoded arrays ("*": a random list entry)."""
    return [path for path, node in _fields_of(doc) if is_encoded_array(node)]


# elorantd.model/1 artifacts of each kind, trained on the fuzz corpus as
# saved_artifacts trains its own; their arrays are nested JSON lists
V1_ARTIFACTS = Path(__file__).parent / "data" / "model_v1"


def _list_entry(value):
    """A change that sets a random entry of a nested list to value."""
    def change(node, rng):
        node = copy.deepcopy(node)
        row = node
        while isinstance(row[0], list):
            row = row[rng.randrange(len(row))]
        row[rng.randrange(len(row))] = value
        return node
    return change


def _ragged(node, rng):
    i = rng.randrange(len(node))
    return node[:i] + [node[i][:-1]] + node[i + 1:]


# label -> change(nested list, rng), each made in one random array per kind;
# the ragged row only in an array of two or more axes
V1_CHANGES = {"ragged row": _ragged, "entry = 'warp'": _list_entry("warp"),
              "entry = '1.5'": _list_entry("1.5"),  # a number, but as a string
              "entry = 10**400": _list_entry(10 ** 400)}  # past float, under JSON's limit


def v1_mutations(seed: int = SEED) -> list[tuple[str, bytes]]:
    """(label, mutated /1 artifact bytes), in a fixed order for a fixed seed;
    each label starts with "<kind> /1: "."""
    rng = random.Random(seed)
    cases = []
    for kind in ARTIFACT_KINDS:
        source = V1_ARTIFACTS / f"{kind}.json"
        doc = json.loads(source.read_text(encoding="utf-8"))
        arrays = _list_arrays(source)
        for label, change in V1_CHANGES.items():
            paths = [p for p, axes in arrays if axes >= 2 or label != "ragged row"]
            if paths:
                path = paths[rng.randrange(len(paths))]
                cases.append((f"{kind} /1: {'.'.join(path)} {label}",
                              _mutated(doc, path, rng, lambda node, c=change: c(node, rng))))
    return cases


def _list_arrays(source: Path) -> list[tuple[tuple, int]]:
    """(path, axes) of each array of the /1 artifact at source: the paths of
    the encoded arrays of the /2 document its model saves as."""
    doc = model_document(load_model(source))
    return [(path, len(node["shape"])) for path, node in _fields_of(doc)
            if is_encoded_array(node)]


def non_finite_cells(path: Path) -> list[str]:
    """The cells of a CSV file that read as a number that is not finite."""
    with open(path, newline="", encoding="utf-8") as fh:
        cells = [cell for row in csv.reader(fh) for cell in row]
    bad = []
    for cell in cells:
        try:
            if not math.isfinite(float(cell)):
                bad.append(cell)
        except ValueError:  # a timestamp or a label
            pass
    return bad


def artifact_commands(config: str, artifact: Path, out: Path) -> dict[str, list[str]]:
    return {"predict": ["predict", "--config", config, "--artifact", str(artifact),
                        "--out", str(out)],
            "evaluate": ["evaluate", "--config", config, "--artifacts", str(artifact),
                         "--out", str(out)]}


def test_artifact_mutations_are_seeded_and_cover_every_kind(saved_artifacts):
    cases = artifact_mutations(saved_artifacts)
    assert cases == artifact_mutations(saved_artifacts)
    for kind, data in saved_artifacts.items():
        labels = [label for label, _ in cases if label.startswith(f"{kind}: ")]
        fields = list(_fields_of(json.loads(data)))
        lists = sum(isinstance(value, list) for _, value in fields)
        arrays = _arrays_of(json.loads(data))
        positive = sum(path[-1] in POSITIVE_ARRAYS for path in arrays)
        assert positive >= 1  # every kind has its standardizer.sd
        assert len(labels) == (len(fields) * VALUES_PER_FIELD + lists * len(LENGTH_CHANGES)
                               + CUTS + 2 + len(ARRAY_CHANGES) + positive
                               + len(HUGE) * len(arrays)
                               + sum(k == kind for k, _, _ in EXIT_3_FIELDS))
        for path in arrays:
            for part in HUGE_LABELS:
                assert f"{kind}: {'.'.join(path)} {part}" in labels, (kind, path, part)
        for part in ARRAY_LABELS:
            assert any(label.endswith(f" {part}") for label in labels), (kind, part)
        for path, _ in fields:
            assert any(label.startswith(f"{kind}: {'.'.join(path) or 'document'} ")
                       for label in labels)
        for value in ARTIFACT_VALUES:
            assert any(label.endswith(f" = {value!r}") for label in labels)
    assert any(label.endswith(".* one entry shorter") for label, _ in cases)  # a point or slice
    assert any("payload.sigmas " in label for label, _ in cases)  # a wlr_agrnn bandwidth
    for label, data in cases:  # no case is a no-op
        kind = label.partition(":")[0]
        try:
            assert json.loads(data) != json.loads(saved_artifacts[kind]), label
        except ValueError:  # not a JSON document: a whole-file case
            pass


def test_version_1_mutations_are_seeded_and_cover_every_kind():
    cases = v1_mutations()
    assert cases == v1_mutations()
    for kind in ARTIFACT_KINDS:
        labels = [label for label, _ in cases if label.startswith(f"{kind} /1: ")]
        wanted = [part for part in V1_CHANGES if part != "ragged row" or kind != "lasso_mpr"]
        assert len(labels) == len(wanted), (kind, labels)  # lasso_mpr has no 2-axis array
        for part in wanted:
            assert any(label.endswith(f" {part}") for label in labels), (kind, part)
    source = {kind: json.loads((V1_ARTIFACTS / f"{kind}.json").read_text(encoding="utf-8"))
              for kind in ARTIFACT_KINDS}
    for label, data in cases:  # each is /1 and changes one array of its file
        doc = json.loads(data)
        assert doc["schema"] == "elorantd.model/1"
        assert doc != source[label.partition(" ")[0]], label


@pytest.mark.filterwarnings("default")
def test_every_artifact_mutation_ends_in_a_documented_exit(
    tmp_path, fuzz_corpus, saved_artifacts, capsys
):
    """In process through predict and evaluate on the test split.  A numpy
    warning is shown as on the console, as one line: a huge but finite
    weight loads, and its predictions may overflow, which exits 3."""
    source, _ = fuzz_corpus
    config = artifact_ini(tmp_path / "run.ini", source)
    artifact, out = tmp_path / "m.json", tmp_path / "out.csv"
    argvs = artifact_commands(config, artifact, out)
    unmutated = [*saved_artifacts.items(),
                 *((f"{kind} /1", (V1_ARTIFACTS / f"{kind}.json").read_bytes())
                   for kind in ARTIFACT_KINDS)]
    for kind, data in unmutated:  # each unmutated artifact works
        artifact.write_bytes(data)
        for command, argv in argvs.items():
            assert main(argv) == 0, (kind, command, capsys.readouterr().err)
    codes = dict.fromkeys(ARTIFACT_EXITS, 0)
    exit_3_fields = {field_label(*case) for case in EXIT_3_FIELDS}
    overflowed = set()  # the kinds a +-1e308 entry drove to an overflow exit
    for label, data in [*artifact_mutations(saved_artifacts), *v1_mutations()]:
        artifact.write_bytes(data)
        for command, argv in argvs.items():
            out.unlink(missing_ok=True)
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - any escape is the failure
                pytest.fail(f"{label}: {command} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in ARTIFACT_EXITS and "Traceback" not in err, (label, command, code, err)
            if code == 0:
                assert not non_finite_cells(out), (label, command, non_finite_cells(out))
            if ("cut at" in label or "not JSON" in label or "non-UTF-8" in label
                    or label in exit_3_fields or " /1: " in label
                    or any(label.endswith(f" {part}") for part in ARRAY_LABELS)):
                assert code == 3, (label, command, err)
            if (any(label.endswith(f" {part}") for part in HUGE_LABELS)
                    and ("artifact predicts" in err or "errors overflow" in err)):
                overflowed.add(label.partition(":")[0])
            if "non-UTF-8" in label:  # reported at the byte's line
                line = data.count(b"\n", 0, int(label.rpartition(" ")[2])) + 1
                assert f"m.json:{line}: byte 0xff is not UTF-8 text" in err, (label, err)
            codes[code] += 1
    assert all(codes.values()), codes  # each documented exit is reached
    assert overflowed == set(ARTIFACT_KINDS), overflowed  # the overflow exit, in every kind


# two whole-file cases, a field case and an array case as console subprocesses
ARTIFACT_CONSOLE_CASES = ("wlr_agrnn: non-UTF-8 byte", "moe: cut at",
                          "lasso_mpr: payload.beta.b64 =", "shape[0] = 2**61")


@pytest.mark.parametrize("part", ARTIFACT_CONSOLE_CASES)
def test_artifact_mutation_console_exit_without_traceback(
    tmp_path, fuzz_corpus, saved_artifacts, part
):
    source, _ = fuzz_corpus
    label, data = next(case for case in artifact_mutations(saved_artifacts) if part in case[0])
    artifact = tmp_path / "m.json"
    artifact.write_bytes(data)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(elorantd.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    argv = artifact_commands(artifact_ini(tmp_path / "run.ini", source), artifact,
                             tmp_path / "out.csv")["evaluate"]
    proc = subprocess.run([sys.executable, "-m", "elorantd.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode in ARTIFACT_EXITS, (label, proc.stderr)
    assert "Traceback" not in proc.stderr and ".py:" not in proc.stderr, (label, proc.stderr)
