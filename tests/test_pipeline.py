"""The pipeline-level input contract: every command, run on small generated
files, exits 0, or exits 2 with a message that names one of its files; no
input ends in an exception.

One property drives ``cli.main`` through ``build-fst`` (catalog and class
corpus), ``decode`` with each biaser kind (none, word-level, subword and
contextual), ``train-lm``, ``rescore``, ``tune`` and ``eval``.  Each step
reads what the steps before it wrote, so a file that one step refused is
missing for the next, which must then exit 2 naming it.
"""

import contextlib
import io
import tempfile
from pathlib import Path

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
