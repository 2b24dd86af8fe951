import json
from pathlib import Path

import pytest

from biaslattice.cli import main
from biaslattice.fst import load_fst
from biaslattice.metrics import write_refs
from biaslattice.wordpiece import save_vocab
from biaslattice.synthdata import default_vocab
from conftest import BAD_ARPA, UNDERFLOW_ARPA
from oracles import reference_serialize


@pytest.fixture()
def workdir(tmp_path):
    vocab = default_vocab()
    save_vocab(vocab, tmp_path / "vocab.txt")
    (tmp_path / "catalog.tsv").write_text(
        "# contacts\nbodu\t1.8\nkela\t1.8\nmora tivu\t1.8\n"
    )
    write_refs(
        {
            "contacts-t0000": "call bodu",
            "contacts-t0001": "dial kela",
            "contacts-t0002": "call mora tivu",
            "general-t0000": "play some music",
            "general-t0001": "what time is it now",
        },
        tmp_path / "refs.tsv",
    )
    (tmp_path / "class.txt").write_text(
        "".join(f"call @contactname(bodu)\n" for _ in range(12))
        + "".join(f"dial @contactname(kela)\n" for _ in range(12))
    )
    (tmp_path / "lmcorpus.txt").write_text(
        "".join("play some music\n" for _ in range(6))
        + "".join("what time is it now\n" for _ in range(6))
    )
    (tmp_path / "contactscorpus.txt").write_text(
        "".join("call @contactname(bodu)\n" for _ in range(6))
        + "".join("dial @contactname(kela)\n" for _ in range(6))
        + "".join("call @contactname(mora tivu)\n" for _ in range(4))
        + "".join("play some music\n" for _ in range(4))
    )
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestBuildFst:
    def test_catalog_build(self, workdir, capsys):
        out = workdir / "catalog.fst"
        assert run("build-fst", "--catalog", workdir / "catalog.tsv", "--out", out) == 0
        fst = load_fst(out)
        assert fst.num_states > 1
        assert "phrases" in capsys.readouterr().out

    def test_class_build(self, workdir):
        out = workdir / "class.fst"
        assert run("build-fst", "--class-corpus", workdir / "class.txt",
                   "--min-count", 10, "--out", out) == 0
        fst = load_fst(out)
        assert "@contactname" in fst.arc_words

    def test_requires_exactly_one_source(self, workdir, capsys):
        assert run("build-fst", "--out", workdir / "x.fst") == 2
        assert "exactly one" in capsys.readouterr().err

    def test_malformed_catalog_exits_2(self, workdir, capsys):
        bad = workdir / "bad.tsv"
        bad.write_text("name\tnotaweight\n")
        assert run("build-fst", "--catalog", bad, "--out", workdir / "x.fst") == 2


class TestPipeline:
    def decode(self, workdir, out, lam, extra=()):
        args = [
            "decode", "--vocab", workdir / "vocab.txt",
            "--catalog", workdir / "catalog.tsv",
            "--refs", workdir / "refs.tsv",
            "--lambda", lam, "--beam", 8, "--nbest", 8,
            "--noise", 0.4, "--oracle-seed", 7,
            "--out", out,
        ]
        return run(*args, *extra)

    def test_decode_eval_rescore_tune(self, workdir, capsys, monkeypatch):
        base = workdir / "base.jsonl"
        boosted = workdir / "boost.jsonl"
        assert self.decode(workdir, base, 0.0) == 0
        assert self.decode(workdir, boosted, 1.5) == 0

        assert run("eval", "--nbest", boosted, "--refs", workdir / "refs.tsv",
                   "--baseline", base, "--json", workdir / "report.json") == 0
        text = capsys.readouterr().out
        assert "contacts" in text and "general" in text
        payload = json.loads((workdir / "report.json").read_text())
        labels = [row["label"] for row in payload["splits"]]
        assert labels[-1] == "all"

        assert run("train-lm", "--corpus", workdir / "lmcorpus.txt",
                   "--order", 3, "--out", workdir / "generic.arpa") == 0
        assert run("train-lm", "--corpus", workdir / "contactscorpus.txt",
                   "--order", 3, "--out", workdir / "contacts.arpa",
                   "--members", workdir / "contacts.members") == 0

        assert run(
            "rescore", "--nbest", boosted,
            "--lm-generic", workdir / "generic.arpa",
            "--lm-contacts", workdir / "contacts.arpa",
            "--lm-members", workdir / "contacts.members",
            "--catalog", workdir / "catalog.tsv",
            "--alpha", 1.0, "--beta", 0.0,
            "--out", workdir / "rescored.jsonl",
        ) == 0
        from biaslattice.decode import read_nbest

        before = read_nbest(boosted)
        after = read_nbest(workdir / "rescored.jsonl")
        assert [[h.text for h in nb.hyps] for nb in before] == [
            [h.text for h in nb.hyps] for nb in after
        ]

        assert run(
            "tune", "--dev", boosted, "--refs", workdir / "refs.tsv",
            "--lm-generic", workdir / "generic.arpa",
            "--lm-contacts", workdir / "contacts.arpa",
            "--lm-members", workdir / "contacts.members",
            "--catalog", workdir / "catalog.tsv",
            "--bounds=-2,4,0,4", "--budget", 60, "--seed", 3,
            "--out", workdir / "tuned.json",
        ) == 0
        tuned = json.loads((workdir / "tuned.json").read_text())
        assert set(tuned) >= {"alpha", "beta", "dev_wer"}

    def test_contextual_decode(self, workdir):
        assert run("build-fst", "--class-corpus", workdir / "class.txt",
                   "--min-count", 10, "--out", workdir / "class.fst") == 0
        assert run("build-fst", "--catalog", workdir / "catalog.tsv",
                   "--out", workdir / "contacts.fst") == 0
        (workdir / "bindings.tsv").write_text("@contactname\tcontacts.fst\n")
        out = workdir / "ctxt.jsonl"
        assert self.decode(
            workdir, out, 1.5,
            extra=["--class-fst", workdir / "class.fst",
                   "--bindings", workdir / "bindings.tsv"],
        ) == 0

    def test_word_level_decode(self, workdir):
        out = workdir / "word.jsonl"
        assert self.decode(workdir, out, 1.0, extra=["--word-level"]) == 0

    def test_missing_refs_exits_2(self, workdir, capsys):
        assert run("decode", "--vocab", workdir / "vocab.txt",
                   "--refs", workdir / "norefs.tsv",
                   "--out", workdir / "x.jsonl") == 2

    def test_bad_bounds_exit_2(self, workdir):
        self.decode(workdir, workdir / "d.jsonl", 0.0)
        assert run("train-lm", "--corpus", workdir / "lmcorpus.txt",
                   "--order", 2, "--out", workdir / "g.arpa") == 0
        assert run("tune", "--dev", workdir / "d.jsonl",
                   "--lm-generic", workdir / "g.arpa",
                   "--bounds", "nope", "--budget", 40) == 2


def exit_code(*argv):
    """``main``'s return value, or the code argparse exits with."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


class TestBadFlags:
    """Out-of-range numeric flags exit with code 2 and name the flag."""

    @pytest.mark.parametrize("flag,value", [
        ("--beam", 0), ("--nbest", 20), ("--lambda", -1), ("--noise", 2),
        ("--lambda", "nan"), ("--beam", "1.5"),
    ])
    def test_decode(self, workdir, capsys, flag, value):
        assert exit_code("decode", "--vocab", workdir / "vocab.txt",
                         "--refs", workdir / "refs.tsv", "--out", workdir / "x.jsonl",
                         flag, value) == 2
        assert flag in capsys.readouterr().err
        assert not (workdir / "x.jsonl").exists()

    def test_train_lm(self, workdir, capsys):
        assert exit_code("train-lm", "--corpus", workdir / "lmcorpus.txt",
                         "--order", 0, "--out", workdir / "x.arpa") == 2
        assert "--order" in capsys.readouterr().err

    def test_build_fst(self, workdir, capsys):
        assert exit_code("build-fst", "--class-corpus", workdir / "class.txt",
                         "--min-count", 0, "--out", workdir / "x.fst") == 2
        assert "--min-count" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--budget", 0), ("--bounds", "4,-2,0,4"), ("--bounds", "nan,1,0,4"),
        ("--bounds", "0,1,inf,4"), ("--budget", 10),
    ])
    def test_tune(self, workdir, capsys, flag, value):
        assert exit_code("tune", "--dev", workdir / "d.jsonl",
                         "--lm-generic", workdir / "g.arpa", flag, value) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_rescore(self, workdir, capsys, flag):
        assert exit_code("rescore", "--nbest", workdir / "d.jsonl",
                         "--lm-generic", workdir / "g.arpa", flag, "nan",
                         "--out", workdir / "x.jsonl") == 2
        assert flag in capsys.readouterr().err


class TestRefsCoverDev:
    """``tune --refs`` rejects a dev id the references lack, as ``eval`` does."""

    @pytest.mark.parametrize("command", ["eval", "tune"])
    def test_missing_id_exits_2(self, workdir, capsys, command):
        assert run("train-lm", "--corpus", workdir / "lmcorpus.txt",
                   "--order", 2, "--out", workdir / "g.arpa") == 0
        path = workdir / "d.jsonl"
        path.write_text("".join(
            json.dumps({"id": utt_id, "ref": "play some music", "lambda": 1.0,
                        "hyps": [{"text": "play some music",
                                  "tokens": ["play_", "some_", "music_"],
                                  "rnnt_logp": -1.0, "sf_score": 0.0}]}) + "\n"
            for utt_id in ("general-t0000", "general-t0009")
        ))
        argv = {
            "eval": ("--nbest", path),
            "tune": ("--dev", path, "--lm-generic", workdir / "g.arpa", "--budget", 30),
        }[command]
        assert run(command, *argv, "--refs", workdir / "refs.tsv") == 2
        assert "utterance general-t0009 missing from references" in capsys.readouterr().err


class TestEmptyNBestRecord:
    """An n-best record without hypotheses exits with code 2, naming its line."""

    @pytest.mark.parametrize("command", ["eval", "tune", "rescore"])
    def test_exits_2(self, workdir, capsys, command):
        assert run("train-lm", "--corpus", workdir / "lmcorpus.txt",
                   "--order", 2, "--out", workdir / "g.arpa") == 0
        good = {"id": "general-t0000", "ref": "play some music", "lambda": 1.0,
                "hyps": [{"text": "play some music", "tokens": ["play_", "some_", "music_"],
                          "rnnt_logp": -1.0, "sf_score": 0.0}]}
        empty = dict(good, id="general-t0001", hyps=[])
        path = workdir / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(empty) + "\n")
        lm = ("--lm-generic", workdir / "g.arpa")
        argv = {
            "eval": ("--nbest", path),
            "tune": ("--dev", path, *lm),
            "rescore": ("--nbest", path, *lm, "--out", workdir / "x.jsonl"),
        }[command]
        assert run(command, *argv) == 2
        assert f"{path}:2" in capsys.readouterr().err
        assert not (workdir / "x.jsonl").exists()


class TestCorruptAutomata:
    """A malformed automaton file exits with code 2, naming the file and offset."""

    def build(self, workdir):
        assert run("build-fst", "--class-corpus", workdir / "class.txt",
                   "--min-count", 10, "--out", workdir / "class.fst") == 0
        assert run("build-fst", "--catalog", workdir / "catalog.tsv",
                   "--out", workdir / "contacts.fst") == 0
        (workdir / "bindings.tsv").write_text("@contactname\tcontacts.fst\n")

    def decode(self, workdir):
        return run("decode", "--vocab", workdir / "vocab.txt",
                   "--refs", workdir / "refs.tsv",
                   "--class-fst", workdir / "class.fst",
                   "--bindings", workdir / "bindings.tsv",
                   "--out", workdir / "x.jsonl")

    def test_truncated_class_fst(self, workdir, capsys):
        self.build(workdir)
        path = workdir / "class.fst"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        assert self.decode(workdir) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert f"ends at offset {len(data) - 3}, needed {len(data)} bytes" in err
        assert not (workdir / "x.jsonl").exists()

    def test_bound_automaton_with_corrupt_flags(self, workdir, capsys):
        self.build(workdir)
        path = workdir / "contacts.fst"
        data = bytearray(path.read_bytes())
        data[18] = 0x80  # the start state's flag byte, after magic and three u32s
        path.write_bytes(bytes(data))
        assert self.decode(workdir) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "unknown state flags 0x80 at offset 18" in err
        assert not (workdir / "x.jsonl").exists()

    def test_blfst1_class_fst_asks_for_a_rebuild(self, workdir, capsys):
        self.build(workdir)
        path = workdir / "class.fst"
        path.write_bytes(reference_serialize(load_fst(path)))
        assert self.decode(workdir) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "rebuild with `biaslattice build-fst`" in err
        assert not (workdir / "x.jsonl").exists()


class TestNBestFieldTypes:
    """An n-best record whose text fields are not strings exits with code 2."""

    @pytest.mark.parametrize("field, value", [
        ("tokens", [1, 2]), ("tokens", "play_"), ("text", 3), ("id", 7), ("ref", None),
    ])
    @pytest.mark.parametrize("command", ["eval", "rescore"])
    def test_exits_2(self, workdir, capsys, command, field, value):
        assert run("train-lm", "--corpus", workdir / "lmcorpus.txt",
                   "--order", 2, "--out", workdir / "g.arpa") == 0
        hyp = {"text": "play some music", "tokens": ["play_", "some_", "music_"],
               "rnnt_logp": -1.0, "sf_score": 0.0}
        record = {"id": "general-t0000", "ref": "play some music", "lambda": 1.0}
        if field in hyp:
            hyp[field] = value
        else:
            record[field] = value
        path = workdir / "d.jsonl"
        path.write_text(json.dumps(dict(record, hyps=[hyp])) + "\n")
        argv = {
            "eval": ("--nbest", path),
            "rescore": ("--nbest", path, "--lm-generic", workdir / "g.arpa",
                        "--out", workdir / "x.jsonl"),
        }[command]
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:1" in err and f'"{field}"' in err
        assert not (workdir / "x.jsonl").exists()


class TestScoreRange:
    """A catalog weight that could overflow decode scores exits with code 2."""

    @pytest.mark.parametrize("extra", [(), ("--lambda", 10), ("--word-level",)])
    def test_huge_weight_exits_2(self, tmp_path, capsys, extra):
        (tmp_path / "catalog.tsv").write_text("kate\t1e308\n")
        (tmp_path / "vocab.txt").write_text("_\nka\nte\nk\na\nt\ne\n")
        (tmp_path / "refs.tsv").write_text("contacts-1\tkate\n")
        assert run("decode", "--vocab", tmp_path / "vocab.txt",
                   "--catalog", tmp_path / "catalog.tsv", "--refs", tmp_path / "refs.tsv",
                   "--noise", 0.5, *extra, "--out", tmp_path / "x.jsonl") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'catalog.tsv'}: catalog weight 1e+308" in err
        assert not (tmp_path / "x.jsonl").exists()


class TestBoundScoreRange:
    """An automaton bound through --bindings whose weight could overflow
    contextual decode scores exits with code 2, naming the bindings file."""

    @pytest.mark.parametrize("with_catalog", [False, True])
    def test_huge_bound_weight_exits_2(self, tmp_path, capsys, with_catalog):
        (tmp_path / "catalog.tsv").write_text("kate\t1e308\n")
        (tmp_path / "class.txt").write_text("call @contactname(kate)\n")
        (tmp_path / "vocab.txt").write_text("_\ncall\nka\nte\nk\na\nt\ne\nc\nl\n")
        (tmp_path / "refs.tsv").write_text("contacts-1\tcall kate\n")
        (tmp_path / "bindings.tsv").write_text("@contactname\tc.fst\n")
        assert run("build-fst", "--catalog", tmp_path / "catalog.tsv",
                   "--out", tmp_path / "c.fst") == 0
        assert run("build-fst", "--class-corpus", tmp_path / "class.txt",
                   "--min-count", 1, "--out", tmp_path / "class.fst") == 0
        catalog = ("--catalog", tmp_path / "catalog.tsv") if with_catalog else ()
        assert run("decode", "--vocab", tmp_path / "vocab.txt", *catalog,
                   "--refs", tmp_path / "refs.tsv",
                   "--class-fst", tmp_path / "class.fst",
                   "--bindings", tmp_path / "bindings.tsv",
                   "--noise", 0.5, "--lambda", 10, "--out", tmp_path / "x.jsonl") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'bindings.tsv'}: @contactname automaton weight 1e+308" in err
        assert not (tmp_path / "x.jsonl").exists()


class TestUnusableLm:
    """A back-off model the scorer cannot use exits with code 2 at load,
    naming the file, rather than failing mid-scoring."""

    @pytest.mark.parametrize("command, grams, missing", [
        ("rescore", ["-1\ta"], "</s> <unk>"),
        ("tune", ["-1\ta", "-1\t</s>"], "<unk>"),
    ])
    def test_missing_unigram_exits_2(self, tmp_path, capsys, command, grams, missing):
        model = tmp_path / "it.arpa"
        model.write_text("\\data\\\nngram 1=%d\n\n\\1-grams:\n%s\n\\end\\\n"
                         % (len(grams), "".join(g + "\n" for g in grams)))
        hyp = {"text": "play music", "tokens": ["play_", "music_"],
               "rnnt_logp": -1.0, "sf_score": 0.0}
        path = tmp_path / "dev.nbest"
        path.write_text(json.dumps({"id": "general-0", "ref": "play music", "lambda": 1.0,
                                    "hyps": [hyp]}) + "\n")
        argv = {
            "rescore": ("--nbest", path, "--out", tmp_path / "o.nbest"),
            "tune": ("--dev", path, "--budget", 30),
        }[command]
        assert run(command, *argv, "--lm-generic", model) == 2
        assert f"{model}: no unigram log-prob for {missing}" in capsys.readouterr().err
        assert not (tmp_path / "o.nbest").exists()

    def test_logprob_above_zero_exits_2_naming_the_line(self, tmp_path, capsys):
        model = tmp_path / "big.arpa"
        model.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n400\ta\n-1\t</s>\n-1\t<unk>\n"
                         "\n\\end\\\n")
        hyp = {"text": "a a", "tokens": ["a_", "a_"], "rnnt_logp": -1.0, "sf_score": 0.0}
        path = tmp_path / "dev.nbest"
        path.write_text(json.dumps({"id": "general-0", "ref": "a a", "lambda": 1.0,
                                    "hyps": [hyp]}) + "\n")
        assert run("rescore", "--nbest", path, "--lm-generic", model,
                   "--out", tmp_path / "o.nbest") == 2
        err = capsys.readouterr().err
        assert f"{model}:5: log-prob above 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.nbest").exists()

    @pytest.mark.parametrize("case", sorted(BAD_ARPA))
    def test_unscorable_model_exits_2_naming_the_line(self, tmp_path, capsys, case):
        text, line, message = BAD_ARPA[case]
        model = tmp_path / "m.arpa"
        model.write_text(text)
        hyp = {"text": "a a", "tokens": ["a_", "a_"], "rnnt_logp": -1.0, "sf_score": 0.0}
        path = tmp_path / "dev.nbest"
        path.write_text(json.dumps({"id": "general-0", "ref": "a a", "lambda": 1.0,
                                    "hyps": [hyp]}) + "\n")
        assert run("rescore", "--nbest", path, "--lm-generic", model,
                   "--out", tmp_path / "o.nbest") == 2
        err = capsys.readouterr().err
        assert f"{model}:{line}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.nbest").exists()



class TestUnderflowingLm:
    """A model whose summed back-offs take a word's probability below the
    smallest float still rescores: scores are mixed in the log domain."""

    def test_rescore_exits_0(self, tmp_path, capsys):
        model = tmp_path / "m.arpa"
        model.write_text(UNDERFLOW_ARPA)
        hyp = {"text": "a a", "tokens": ["a_", "a_"], "rnnt_logp": -1.0, "sf_score": 0.0}
        path = tmp_path / "dev.nbest"
        path.write_text(json.dumps({"id": "general-0", "ref": "a a", "lambda": 1.0,
                                    "hyps": [hyp]}) + "\n")
        assert run("rescore", "--nbest", path, "--lm-generic", model, "--beta", 1,
                   "--out", tmp_path / "o.nbest") == 0
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads((tmp_path / "o.nbest").read_text())["hyps"][0]["text"] == "a a"


@pytest.fixture()
def built(workdir):
    """A trained contacts model, the class and catalog automata, a bindings
    manifest and a one-list n-best file in ``workdir``."""
    assert run("train-lm", "--corpus", workdir / "contactscorpus.txt", "--order", 2,
               "--out", workdir / "c.arpa", "--members", workdir / "c.members") == 0
    assert run("build-fst", "--class-corpus", workdir / "class.txt",
               "--out", workdir / "class.fst") == 0
    assert run("build-fst", "--catalog", workdir / "catalog.tsv",
               "--out", workdir / "contacts.fst") == 0
    (workdir / "bindings.tsv").write_text("@contactname\tcontacts.fst\n")
    hyp = {"text": "call bodu", "tokens": ["call_", "bodu_"],
           "rnnt_logp": -1.0, "sf_score": 0.0}
    (workdir / "d.nbest").write_text(json.dumps(
        {"id": "contacts-t0000", "ref": "call bodu", "lambda": 1.0, "hyps": [hyp]}) + "\n")


def _utf8_cases(w):
    """Reader -> (the file it reads, a command line that reads it) in ``w``."""
    nbest = ("--nbest", w / "d.nbest")
    decode = ("decode", "--vocab", w / "vocab.txt", "--refs", w / "refs.tsv",
              "--out", w / "x.nbest")
    rescore = ("rescore", *nbest, "--out", w / "x.nbest", "--lm-generic", w / "c.arpa")
    return {
        "catalog": ("catalog.tsv", ("build-fst", "--catalog", w / "catalog.tsv",
                                    "--out", w / "x.fst")),
        "class-corpus": ("class.txt", ("build-fst", "--class-corpus", w / "class.txt",
                                       "--out", w / "x.fst")),
        "train-lm": ("lmcorpus.txt", ("train-lm", "--corpus", w / "lmcorpus.txt",
                                      "--out", w / "x.arpa")),
        "vocab": ("vocab.txt", decode),
        "refs": ("refs.tsv", decode),
        "bindings": ("bindings.tsv", (*decode, "--class-fst", w / "class.fst",
                                      "--bindings", w / "bindings.tsv")),
        "nbest": ("d.nbest", ("eval", *nbest)),
        "arpa": ("c.arpa", rescore),
        # --lm-contacts routes nothing without --catalog, which rescore refuses.
        "members": ("c.members", (*rescore, "--lm-contacts", w / "c.arpa", "--lm-members",
                                  w / "c.members", "--catalog", w / "catalog.tsv")),
    }


@pytest.mark.usefixtures("built")
class TestInvalidUtf8:
    """A text input holding bytes that are not UTF-8 exits with code 2 and
    names the file, whichever reader meets them."""

    @pytest.mark.parametrize("reader", sorted(_utf8_cases(Path())))
    def test_exits_2_naming_the_file(self, workdir, capsys, reader):
        name, argv = _utf8_cases(workdir)[reader]
        assert run(*argv) == 0  # the command line works on the intact file
        capsys.readouterr()

        bad = workdir / name
        bad.write_bytes(b"\xff" + bad.read_bytes())
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err
        assert "Traceback" not in err


@pytest.mark.usefixtures("built")
class TestIgnoredFlags:
    """A flag that the other flags given would make a no-op exits with code
    2 and names the flag and its file."""

    @pytest.mark.parametrize("command", ["rescore", "tune"])
    @pytest.mark.parametrize("flag, name, needs", [
        ("--lm-contacts", "c.arpa", "--catalog"),
        ("--catalog", "catalog.tsv", "--lm-contacts"),
        ("--lm-members", "c.members", "--lm-contacts"),
    ])
    def test_second_pass_routing(self, workdir, capsys, command, flag, name, needs):
        argv = {"rescore": ("rescore", "--nbest", workdir / "d.nbest"),
                "tune": ("tune", "--dev", workdir / "d.nbest", "--budget", 30)}[command]
        assert run(*argv, "--lm-generic", workdir / "c.arpa", flag, workdir / name,
                   "--out", workdir / "x.out") == 2
        err = capsys.readouterr().err
        assert f"{flag} {workdir / name} requires {needs}" in err
        assert "Traceback" not in err
        assert not (workdir / "x.out").exists()

    @pytest.mark.parametrize("extra, message", [
        ("--bindings {w}/bindings.tsv", "--bindings {w}/bindings.tsv requires --class-fst"),
        ("--class-fst {w}/class.fst --bindings {w}/bindings.tsv --word-level",
         "--word-level has no effect with --class-fst {w}/class.fst"),
    ])
    def test_decode_biaser(self, workdir, capsys, extra, message):
        assert run("decode", "--vocab", workdir / "vocab.txt", "--refs", workdir / "refs.tsv",
                   "--catalog", workdir / "catalog.tsv", *extra.format(w=workdir).split(),
                   "--out", workdir / "x.out") == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(w=workdir)}\n"
        assert not (workdir / "x.out").exists()


def test_train_lm_refuses_sentence_markers(workdir, capsys):
    (workdir / "marked.txt").write_text("play some music\nplay <S> some music\n")
    assert run("train-lm", "--corpus", workdir / "marked.txt", "--out", workdir / "m.arpa") == 2
    err = capsys.readouterr().err
    assert f"{workdir / 'marked.txt'}:2: reserved sentence marker in training text: <s>" in err
    assert not (workdir / "m.arpa").exists()
