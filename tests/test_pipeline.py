"""The pipeline-level input contract: every command, run on small generated
files, exits 0, or exits 2 with a message that names one of its files; no
input ends in an exception.

One property drives ``cli.main`` through ``build-fst`` (catalog and class
corpus), ``decode`` with each biaser kind (none, word-level, subword and
contextual), ``train-lm``, ``rescore``, ``tune`` and ``eval``.  Each step
reads what the steps before it wrote, so a file that one step refused is
missing for the next, which must then exit 2 naming it.

A second property starts from a valid file of every kind a command reads,
the binary automata and the n-best file included, mutates one of them at
byte level (flip, delete, insert, truncate) or at line level (duplicate,
swap), or puts another JSON value in place of one n-best record, and runs
the commands that read it under the same contract.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslattice.cli import main

_WORD = st.text(alphabet="abk", min_size=1, max_size=4)
_BAD_WORDS = st.sampled_from(["_", "a_b", "z", "@x", "a(b)"])
_WEIGHTS = st.sampled_from(["1.8", "-2", "0.5"])
_BAD_WEIGHTS = st.sampled_from(["1e308", "-1e308", "nan", "-inf", "x", ""])


def _rarely(draw, valid, invalid):
    """A draw of ``valid``, or now and then of ``invalid``."""
    return draw(invalid if draw(st.integers(0, 9)) == 9 else valid)


@st.composite
def _inputs(draw):
    """The text files of one run, mostly well formed, plus decode's flags.

    Words come from one small pool, so references mention catalog phrases
    and templates license them; each file is malformed now and then."""
    words = draw(st.lists(_WORD, min_size=1, max_size=5, unique=True))
    word = st.sampled_from(words)
    phrases = st.lists(word, min_size=1, max_size=2).map(" ".join)
    text = st.lists(st.one_of(word, st.builds("@contactname({})".format, phrases)),
                    min_size=1, max_size=4).map(" ".join)

    pieces = draw(st.sets(st.text(alphabet="abk", min_size=2, max_size=2), max_size=4))
    pieces |= _rarely(draw, st.just(set("abk")), st.sets(st.sampled_from("abk")))
    weight = draw(_WEIGHTS)
    catalog = "".join(
        _rarely(draw, st.just(p), _BAD_WORDS) + "\t"
        + _rarely(draw, st.just(weight), _BAD_WEIGHTS) + "\n"
        for p in draw(st.lists(phrases, min_size=1, max_size=4, unique=True)))
    refs = "".join(
        f"{'contacts' if i % 2 else 'general'}-{i}\t{_rarely(draw, phrases, _BAD_WORDS)}\n"
        for i in range(draw(st.integers(1, 3))))
    return {
        "vocab.txt": "".join(p + "\n" for p in sorted(pieces | {"_"})),
        "catalog.tsv": catalog,
        "refs.tsv": refs,
        "class.txt": "".join(f"call {_rarely(draw, text, _BAD_WORDS)}\n"
                             for _ in range(draw(st.integers(0, 4)))),
        "corpus.txt": "".join(f"{_rarely(draw, text, _BAD_WORDS)}\n"
                              for _ in range(draw(st.integers(1, 4)))),
        "bindings.tsv": "@contactname\tcatalog.fst\n",
    }, draw(st.sampled_from(["0", "1.5", "10"])), draw(st.sampled_from(["0", "0.5"]))


def _run(argv, files):
    """``main``'s exit code; a code 2 must come with a message naming a file."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert any(str(f) in err.getvalue() for f in files), (argv, err.getvalue())
    return code


@given(_inputs())
@settings(max_examples=60, deadline=None)
def test_every_command_exits_0_or_2_naming_a_file(case):
    texts, lam, noise = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, text in texts.items():
            (d / name).write_text(text, encoding="utf-8")
        files = [d / name for name in (*texts, "catalog.fst", "class.fst", "lm.arpa",
                                       "lm.members", "subword.nbest", "rescored.nbest")]
        _run(["build-fst", "--catalog", d / "catalog.tsv", "--out", d / "catalog.fst"], files)
        _run(["build-fst", "--class-corpus", d / "class.txt", "--min-count", 1,
              "--out", d / "class.fst"], files)
        decode = ["decode", "--vocab", d / "vocab.txt", "--refs", d / "refs.tsv",
                  "--lambda", lam, "--noise", noise, "--beam", 4, "--nbest", 2]
        catalog = ["--catalog", d / "catalog.tsv"]
        for kind, extra in {
            "none": [],
            "word": [*catalog, "--word-level"],
            "subword": catalog,
            "context": [*catalog, "--class-fst", d / "class.fst",
                        "--bindings", d / "bindings.tsv"],
        }.items():
            _run([*decode, *extra, "--out", d / f"{kind}.nbest"], files)
        _run(["train-lm", "--corpus", d / "corpus.txt", "--order", 2, "--out", d / "lm.arpa",
              "--members", d / "lm.members"], files)
        lms = ["--lm-generic", d / "lm.arpa", "--lm-contacts", d / "lm.arpa",
               "--lm-members", d / "lm.members", *catalog]
        _run(["rescore", "--nbest", d / "subword.nbest", *lms,
              "--out", d / "rescored.nbest"], files)
        _run(["tune", "--dev", d / "subword.nbest", *lms, "--budget", 30], files)
        _run(["eval", "--nbest", d / "rescored.nbest", "--refs", d / "refs.tsv"], files)


# The text files of a small valid task.
_VALID = {
    "vocab.txt": "_\na\nb\nk\nab\nka\n",
    "catalog.tsv": "ab ka\t1.8\nbak\t-2\n",
    "refs.tsv": "contacts-0\tab ka\ngeneral-1\tbak ab\n",
    "class.txt": "ab @contactname(ab ka)\nka @contactname(bak)\nbak ab\n",
    "bindings.tsv": "@contactname\tcatalog.fst\n",
}
_DECODE = ("decode --vocab {d}/vocab.txt --refs {d}/refs.tsv --catalog {d}/catalog.tsv"
           " --beam 4 --nbest 2")
_CONTEXT = _DECODE + " --class-fst {d}/class.fst --bindings {d}/bindings.tsv"
_RESCORE = ("rescore --nbest {d}/subword.nbest --lm-generic {d}/lm.arpa --lm-contacts {d}/lm.arpa"
            " --lm-members {d}/lm.members --catalog {d}/catalog.tsv --out {d}/rescored.nbest")
# Each file's name -> the command lines that read it, ``{d}`` standing for
# its directory.
_READERS = {
    "catalog.tsv": ["build-fst --catalog {d}/catalog.tsv --out {d}/x.fst"],
    "vocab.txt": [_DECODE + " --out {d}/x.nbest"],
    "refs.tsv": [_DECODE + " --out {d}/x.nbest"],
    "class.txt": ["build-fst --class-corpus {d}/class.txt --min-count 1 --out {d}/x.fst",
                  "train-lm --corpus {d}/class.txt --order 2 --out {d}/x.arpa"],
    "bindings.tsv": [_CONTEXT + " --out {d}/x.nbest"],
    "catalog.fst": [_CONTEXT + " --out {d}/x.nbest"],
    "class.fst": [_CONTEXT + " --out {d}/x.nbest"],
    "lm.arpa": [_RESCORE],
    "lm.members": [_RESCORE],
    "subword.nbest": ["eval --nbest {d}/subword.nbest --refs {d}/refs.tsv", _RESCORE],
}
# The files the commands above write, made once from the valid text files.
_BUILD = [
    "build-fst --catalog {d}/catalog.tsv --out {d}/catalog.fst",
    "build-fst --class-corpus {d}/class.txt --min-count 1 --out {d}/class.fst",
    "train-lm --corpus {d}/class.txt --order 2 --out {d}/lm.arpa --members {d}/lm.members",
    _DECODE + " --lambda 1.5 --out {d}/subword.nbest",
]


def _argv(command_line, d):
    return [arg.replace("{d}", str(d)) for arg in command_line.split()]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory holding a valid file of every kind in ``_READERS``."""
    d = tmp_path_factory.mktemp("valid")
    for name, text in _VALID.items():
        (d / name).write_text(text)
    for command_line in _BUILD:
        assert _run(_argv(command_line, d), []) == 0
    assert sorted(p.name for p in d.iterdir()) == sorted(_READERS)
    for command_line in {c for lines in _READERS.values() for c in lines}:
        assert _run(_argv(command_line, d), []) == 0
    for out in set(d.iterdir()) - {d / name for name in _READERS}:
        out.unlink()
    return d


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=4,
)


@st.composite
def _mutated(draw, data, records):
    """``data`` with one byte flipped, deleted or inserted, cut short, one
    line duplicated or two swapped, or, if its lines are JSON ``records``,
    one record or one of its fields or first hypothesis's replaced by
    another JSON value."""
    kinds = st.sampled_from(["flip", "delete", "insert", "truncate", "duplicate", "swap"])
    kind = draw(kinds | st.just("json") if records else kinds)
    if kind in ("flip", "delete", "insert", "truncate"):
        i = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(1, 255))
        return {
            "flip": data[:i] + bytes([data[i] ^ byte]) + data[i + 1:],
            "delete": data[:i] + data[i + 1:],
            "insert": data[:i] + bytes([byte]) + data[i:],
            "truncate": data[:i],
        }[kind]
    lines = data.splitlines(keepends=True)
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        value, record = draw(_JSON), json.loads(lines[i])
        hyp = record["hyps"][0]
        field = draw(st.sampled_from([None, *record, *hyp]))
        if field is None:
            record = value
        else:
            (record if field in record else hyp)[field] = value
        lines[i] = json.dumps(record).encode() + b"\n"
    return b"".join(lines)


@given(st.sampled_from(sorted(_READERS)), st.data())
@settings(max_examples=150, deadline=None)
def test_a_mutated_file_exits_0_or_2_naming_a_file(valid, name, data):
    original = (valid / name).read_bytes()
    mutated = data.draw(_mutated(original, name.endswith(".nbest")), label="mutated")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for path in valid.iterdir():
            shutil.copy(path, d)
        (d / name).write_bytes(mutated)
        files = list(d.iterdir())
        for command_line in _READERS[name]:
            _run(_argv(command_line, d), files)
