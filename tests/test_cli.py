import json
import math
from pathlib import Path

import pytest

from biaslattice.cli import main
from biaslattice.context import build_class_fst
from biaslattice.decode import read_nbest
from biaslattice.fst import build_catalog_fst, load_fst, read_catalog, serialize
from biaslattice.metrics import write_refs
from biaslattice.wordpiece import save_vocab
from biaslattice.synthdata import default_vocab
from conftest import BAD_ARPA, UNDERFLOW_ARPA


CATALOG = "# contacts\nbodu\t1.8\nkela\t1.8\nmora tivu\t1.8\n"


@pytest.fixture()
def workdir(tmp_path):
    vocab = default_vocab()
    save_vocab(vocab, tmp_path / "vocab.txt")
    (tmp_path / "catalog.tsv").write_text(CATALOG)
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


HYP = {"text": "call bodu", "tokens": ["call_", "bodu_"], "rnnt_logp": -1.0, "sf_score": 0.0}
RECORD = {"id": "contacts-t0000", "ref": "call bodu", "lambda": 1.0, "hyps": [HYP]}


def _lines(*records):
    """An n-best file holding ``records``, one JSON line each."""
    return "".join(json.dumps(record) + "\n" for record in records)


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
    (workdir / "d.nbest").write_text(_lines(RECORD))


# Command lines over the files of ``built``; ``{w}`` stands for its directory.
DECODE = "decode --vocab {w}/vocab.txt --refs {w}/refs.tsv --out {w}/x.nbest"
CATALOG_DECODE = DECODE + " --catalog {w}/catalog.tsv"
CONTEXT = DECODE + " --class-fst {w}/class.fst --bindings {w}/bindings.tsv"
EVAL = "eval --nbest {w}/d.nbest --json {w}/x.json"
RESCORE = "rescore --nbest {w}/d.nbest --lm-generic {w}/c.arpa --out {w}/x.nbest"
TUNE = "tune --dev {w}/d.nbest --lm-generic {w}/c.arpa --out {w}/x.json"
SECOND_PASS = {"rescore": RESCORE, "tune": TUNE}
READS_NBEST = {"eval": EVAL, **SECOND_PASS}
ROUTED = " --lm-contacts {w}/c.arpa --lm-members {w}/c.members --catalog {w}/catalog.tsv"

# Reader -> (the file it reads, a command line that reads it).
READERS = {
    "catalog": ("catalog.tsv", "build-fst --catalog {w}/catalog.tsv --out {w}/x.fst"),
    "class-corpus": ("class.txt", "build-fst --class-corpus {w}/class.txt --out {w}/x.fst"),
    "train-lm": ("lmcorpus.txt", "train-lm --corpus {w}/lmcorpus.txt --out {w}/x.arpa"),
    "vocab": ("vocab.txt", DECODE),
    "refs": ("refs.tsv", DECODE),
    "bindings": ("bindings.tsv", CONTEXT),
    "nbest": ("d.nbest", EVAL),
    "arpa": ("c.arpa", RESCORE),
    # --lm-contacts routes nothing without --catalog, which rescore refuses.
    "members": ("c.members", RESCORE + ROUTED),
}


def _argv(command_line, w):
    return [arg.replace("{w}", str(w)) for arg in command_line.split()]


def check_refused(workdir, capsys, command_line, message, files=None):
    """Write ``files`` (name -> text, bytes, or a function of the directory
    giving either) over ``workdir``, run ``command_line`` and check that it
    exits 2, printing one error line that starts with ``message`` (is all of
    ``message`` where that ends in a newline) and no traceback, and writes no
    output file."""
    for name, content in (files or {}).items():
        content = content(workdir) if callable(content) else content
        path = workdir / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    argv = _argv(command_line, workdir)
    try:
        code, usage = main(argv), False
    except SystemExit as exc:  # argparse refuses a flag value after its usage lines
        code, usage = exc.code, True
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert usage or err.count("\n") == 1, err
    assert err.partition("error: ")[2].startswith(message.replace("{w}", str(workdir))), err
    for flag in ("--out", "--json", "--members"):
        if flag in argv:
            assert not Path(argv[argv.index(flag) + 1]).exists()


# The refusal table: every input the command line refuses with exit code 2.
# Each row is (command line, message, files written over ``built`` first) for
# ``check_refused``; ``refused`` makes a test of one row and ``refused_each``
# one test parametrized over rows keyed by case id.  Rows are grouped under
# named tests so that each case keeps one id from run to run.


def refused(command_line, message, files=None):
    @pytest.mark.usefixtures("built")
    def test(self, workdir, capsys):
        check_refused(workdir, capsys, command_line, message, files)
    return test


def refused_each(rows):
    @pytest.mark.usefixtures("built")
    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(self, workdir, capsys, row):
        check_refused(workdir, capsys, *row)
    return test


def _catalog_fst(text):
    return serialize(build_catalog_fst(read_catalog(text.splitlines())))


def _class_fst(text):
    return serialize(build_class_fst(text.splitlines(), 1).fst)


def _bar_vocab(w):
    return "#delimiter |\n" + (w / "vocab.txt").read_text()


def _flag_set(value, state=0):
    def corrupt(w):
        data = bytearray((w / "contacts.fst").read_bytes())
        data[18 + state] = value  # the flag bytes follow magic and three u32s
        return bytes(data)
    return corrupt


def _magic_set(magic):
    return lambda w: magic + (w / "class.fst").read_bytes()[len(magic):]


def _member_twice(w):
    first, *rest = (w / "c.members").read_text().splitlines(keepends=True)
    return "".join([first, first, *rest])


def _not_utf8(name):
    return lambda w: b"\xff" + (w / name).read_bytes()


BAR_WORD = "bodu\t1\nbo|du\t-1\n"  # "bo|du" builds, but no "|"-delimited token spells it


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

    def test_word_holding_the_default_delimiter_builds(self, workdir):
        # An automaton knows no vocabulary: only decode, which reads one, can
        # tell whether a word holds its delimiter.
        path = workdir / "catalog.tsv"
        path.write_text("bodu\t1\nbo_du\t-1\n")
        assert run("build-fst", "--catalog", path, "--out", workdir / "c.fst") == 0
        assert load_fst(workdir / "c.fst").arc_words == ["bo_du", "bodu"]

    test_requires_exactly_one_source = refused(
        "build-fst --out {w}/x.fst", "build-fst needs exactly one of --catalog / --class-corpus")
    test_malformed_catalog_exits_2 = refused(
        "build-fst --catalog {w}/catalog.tsv --out {w}/x.fst",
        "{w}/catalog.tsv:1: bad weight 'notaweight'", {"catalog.tsv": "name\tnotaweight\n"})


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

    test_missing_refs_exits_2 = refused(
        "decode --vocab {w}/vocab.txt --refs {w}/norefs.tsv --out {w}/x.nbest",
        "[Errno 2] No such file or directory: '{w}/norefs.tsv'")
    test_bad_bounds_exit_2 = refused(f"{TUNE} --bounds nope",
                                     "--bounds must be 'a0,a1,b0,b1', got 'nope'")


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


class TestBadFlags:
    """A flag value out of range."""

    test_decode = refused_each({f"{flag}-{value}": (f"{DECODE} {flag} {value}", message)
                                for flag, value, message in [
        ("--beam", "0", "argument --beam: must be >= 1, got '0'"),
        ("--beam", "1.5", "argument --beam: not a valid int: '1.5'"),
        ("--nbest", "20", "--nbest 20 exceeds --beam 16"),
        ("--lambda", "-1", "argument --lambda: must be finite and >= 0, got '-1'"),
        ("--lambda", "nan", "argument --lambda: must be finite and >= 0, got 'nan'"),
        ("--noise", "2", "argument --noise: must be in [0, 1], got '2'"),
    ]})
    test_train_lm = refused("train-lm --corpus {w}/lmcorpus.txt --order 0 --out {w}/x.arpa",
                            "argument --order: must be >= 1, got '0'")
    test_build_fst = refused(
        "build-fst --class-corpus {w}/class.txt --min-count 0 --out {w}/x.fst",
        "argument --min-count: must be >= 1, got '0'")
    test_tune = refused_each({f"{flag}-{value}": (f"{TUNE} {flag} {value}", message)
                              for flag, value, message in [
        ("--budget", "0", "argument --budget: must be >= 1, got '0'"),
        ("--budget", "10", "--budget must be >= 26, the seed grid, got 10"),
        *(("--bounds", bounds, "--bounds must be finite with a0 <= a1 and b0 <= b1, "
           f"got '{bounds}'") for bounds in ["4,-2,0,4", "nan,1,0,4", "0,1,inf,4"]),
    ]})
    test_rescore = refused_each({flag: (f"{RESCORE} {flag} nan",
                                        f"argument {flag}: must be finite, got 'nan'")
                                 for flag in ["--alpha", "--beta"]})


class TestIgnoredFlags:
    """A flag that the other flags given would make a no-op."""

    test_second_pass_routing = refused_each({
        f"{flag}-{name}-{needs}-{command}": (f"{argv} {flag} {{w}}/{name}",
                                             f"{flag} {{w}}/{name} requires {needs}")
        for command, argv in SECOND_PASS.items()
        for flag, name, needs in [("--lm-contacts", "c.arpa", "--catalog"),
                                  ("--catalog", "catalog.tsv", "--lm-contacts"),
                                  ("--lm-members", "c.members", "--lm-contacts")]})
    test_decode_biaser = refused_each({
        # The message is all that stderr holds.
        f"{extra}-{message}": (f"{CATALOG_DECODE} {extra}", message + "\n")
        for extra, message in [
            ("--bindings {w}/bindings.tsv", "--bindings {w}/bindings.tsv requires --class-fst"),
            ("--class-fst {w}/class.fst --bindings {w}/bindings.tsv --word-level",
             "--word-level has no effect with --class-fst {w}/class.fst"),
        ]})


class TestScoreRange:
    """A catalog weight that could overflow decode scores."""

    test_huge_weight_exits_2 = refused_each({
        f"extra{i}": (f"{CATALOG_DECODE} --noise 0.5 {extra}",
                      "{w}/catalog.tsv: catalog weight 1e+308", {"catalog.tsv": "bodu\t1e308\n"})
        for i, extra in enumerate(["", "--lambda 10", "--word-level"])})


class TestBoundScoreRange:
    """A bound automaton weight that could overflow contextual decode scores:
    the bindings file is named even when the catalog given is as large."""

    test_huge_bound_weight_exits_2 = refused_each({
        str(with_catalog): (f"{CONTEXT} --noise 0.5 --lambda 10 {extra}",
                            "{w}/bindings.tsv: @contactname automaton weight 1e+308",
                            {"contacts.fst": _catalog_fst("bodu\t1e308\n"), **catalog})
        for with_catalog, extra, catalog in [
            (False, "", {}),
            (True, "--catalog {w}/catalog.tsv", {"catalog.tsv": "bodu\t1e308\n"}),
        ]})


class TestRepeatedKeys:
    """A key that a file may hold once, given twice."""

    test_catalog_phrase = refused("build-fst --catalog {w}/catalog.tsv --out {w}/x.fst",
                                  "{w}/catalog.tsv:5: duplicate catalog phrase: 'kela'",
                                  {"catalog.tsv": CATALOG + "Kela\t1.8\n"})
    test_binding_tag = refused(CONTEXT, "{w}/bindings.tsv:2: duplicate binding for '@contactname'",
                               {"bindings.tsv": "@contactname\tcontacts.fst\n" * 2})
    # The tag is stripped, so "@contactname " repeats "@contactname".
    test_binding_tag_with_a_trailing_space = refused(
        CONTEXT, "{w}/bindings.tsv:2: duplicate binding for '@contactname'",
        {"bindings.tsv": "@contactname\tcontacts.fst\n@contactname \tcontacts.fst\n"})
    test_class_member = refused(RESCORE + ROUTED,
                                "{w}/c.members:2: duplicate member 'bodu' of '@contactname'",
                                {"c.members": _member_twice})
    test_nbest_id = refused(EVAL, "{w}/d.nbest:2: duplicate utterance id 'contacts-t0000'",
                            {"d.nbest": _lines(RECORD, RECORD)})


class TestBlamedLine:
    """Input the reader parses but the program cannot use: the file and line
    at fault are named."""

    test_catalog_entry_the_builder_refuses = refused_each({
        **{f"conflicting-weights-{command}": (
            f"{argv} --catalog {{w}}/catalog.tsv",
            "{w}/catalog.tsv:3: conflicting weights -1.0 vs -2.0 on shared prefix arc 'ada'",
            {"catalog.tsv": "ada lovelace\t-1\nbodu\t-1\nada\t-2\n"})
           for command, argv in [("build-fst", "build-fst --out {w}/x.fst"), ("decode", DECODE)]},
        "delimiter-in-a-word-decode": (
            CATALOG_DECODE, "{w}/catalog.tsv:3: word 'bo_du' contains the subword delimiter '_'",
            {"catalog.tsv": "# contacts\nbodu\t1\nbo_du\t-1\n"}),
    })
    test_catalog_word_holding_the_vocabulary_delimiter = refused(
        CATALOG_DECODE, "{w}/catalog.tsv:2: word 'bo|du' contains the subword delimiter '|'",
        {"vocab.txt": _bar_vocab, "catalog.tsv": BAR_WORD})
    test_vocabulary_line = refused_each({
        "piece-holding-the-delimiter": (DECODE, "{w}/vocab.txt:3: piece 'a_b' holds the "
                                        "delimiter '_'", {"vocab.txt": "a\nb\na_b\n"}),
        "second-delimiter-directive": (DECODE, "{w}/vocab.txt:3: a second #delimiter directive",
                                       {"vocab.txt": "#delimiter |\na\n#delimiter _\n"}),
    })
    test_binding_for_a_tag_the_class_automaton_lacks = refused(
        CONTEXT, "{w}/bindings.tsv:3: the class automaton has no tag '@contactnme'",
        {"bindings.tsv": "@contactname\tcontacts.fst\n# a typo\n@contactnme\tcontacts.fst\n"})
    test_bound_path_that_cannot_be_opened = refused_each({
        "nul-byte": (CONTEXT, "{w}/bindings.tsv:1: cannot open 'cat\\x00alog.fst': "
                     "embedded null byte", {"bindings.tsv": "@contactname\tcat\x00alog.fst\n"}),
        "missing-file": (CONTEXT, "{w}/bindings.tsv:1: cannot open 'absent.fst': [Errno 2] "
                         "No such file or directory", {"bindings.tsv": "@contactname\tabsent.fst\n"}),
    })
    test_automaton_word_holding_the_vocabulary_delimiter = refused_each({
        "bound-automaton": (CONTEXT, "{w}/bindings.tsv: @contactname automaton: word 'bo|du' "
                            "contains the subword delimiter '|'",
                            {"vocab.txt": _bar_vocab, "contacts.fst": _catalog_fst(BAR_WORD)}),
        "class-automaton": (CONTEXT, "{w}/class.fst: word 'call|me' contains the subword "
                            "delimiter '|'", {"vocab.txt": _bar_vocab,
                                              "class.fst": _class_fst("call|me @contactname(bodu)\n")}),
    })


class TestCorruptAutomata:
    """An automaton file that does not load; the class.fst of ``built`` is 118 bytes."""

    test_truncated_class_fst = refused(
        CONTEXT, "{w}/class.fst: truncated automaton: ends at offset 115, needed 118 bytes",
        {"class.fst": lambda w: (w / "class.fst").read_bytes()[:-3]})
    # A retired format is named by its magic alone.
    test_blfst1_class_fst_asks_for_a_rebuild = refused(
        CONTEXT, "{w}/class.fst: BLFST1 automata are no longer read; rebuild with "
        "`biaslattice build-fst`", {"class.fst": _magic_set(b"BLFST1")})
    test_blfst2_class_fst_asks_for_a_rebuild = refused(
        CONTEXT, "{w}/class.fst: BLFST2 automata are no longer read; rebuild with "
        "`biaslattice build-fst`", {"class.fst": _magic_set(b"BLFST2")})
    test_bound_automaton_with_corrupt_flags = refused(
        CONTEXT, "{w}/contacts.fst: unknown state flags 0x80 at offset 18",
        {"contacts.fst": _flag_set(0x80)})
    # Bit 1 marked the start state in BLFST2; a BLFST3 flag byte holds bit 0 only.
    test_bound_automaton_with_the_bit_blfst2_set_on_the_start = refused_each({
        f"{value:#x}": (CONTEXT, f"{{w}}/contacts.fst: unknown state flags {value:#x} at offset 18",
                        {"contacts.fst": _flag_set(value)})
        for value in (2, 3)})
    # Well-formed bytes whose columns are unsound: the column check names the first fault.
    test_bound_automaton_with_a_structural_fault = refused_each({
        case: (CONTEXT, f"{{w}}/contacts.fst: malformed automaton: {problem}",
               {"contacts.fst": corrupt})
        for case, problem, corrupt in [
            ("two-words-swapped", "state 0: arcs not strictly sorted at 'bodu'",
             lambda w: (w / "contacts.fst").read_bytes().replace(b"bodu\nkela", b"kela\nbodu")),
            # State 1 is the leaf that ends "bodu".
            ("leaf-unfinal", "state 1 is a non-final dead end", _flag_set(0, state=1)),
        ]})


@pytest.mark.usefixtures("built")
def test_train_lm_refuses_sentence_markers(workdir, capsys):
    check_refused(workdir, capsys, "train-lm --corpus {w}/marked.txt --out {w}/x.arpa",
                  "{w}/marked.txt:2: reserved sentence marker in training text: <s>",
                  {"marked.txt": "play some music\nplay <S> some music\n"})


class TestUnusableLm:
    """A back-off model the scorer cannot use, refused at load."""

    test_missing_unigram_exits_2 = refused_each({
        f"{command}-grams{i}-{missing}": (
            SECOND_PASS[command], f"{{w}}/c.arpa: no unigram log-prob for {missing}",
            {"c.arpa": "\\data\\\nngram 1=%d\n\n\\1-grams:\n%s\n\\end\\\n"
                       % (len(grams), "".join(g + "\n" for g in grams))})
        for i, (command, grams, missing) in enumerate([("rescore", ["-1\ta"], "</s> <unk>"),
                                                       ("tune", ["-1\ta", "-1\t</s>"], "<unk>")])})
    test_logprob_above_zero_exits_2_naming_the_line = refused(
        RESCORE, "{w}/c.arpa:5: log-prob above 0",
        {"c.arpa": "\\data\\\nngram 1=3\n\n\\1-grams:\n400\ta\n-1\t</s>\n-1\t<unk>\n\n\\end\\\n"})
    test_unscorable_model_exits_2_naming_the_line = refused_each({
        case: (RESCORE, f"{{w}}/c.arpa:{line}: {message}", {"c.arpa": text})
        for case, (text, line, message) in sorted(BAD_ARPA.items())})


class TestEmptyNBestRecord:
    test_exits_2 = refused_each({
        command: (argv, '{w}/d.nbest:2: bad n-best record: empty "hyps" list',
                  {"d.nbest": _lines(RECORD, dict(RECORD, id="contacts-t0001", hyps=[]))})
        for command, argv in READS_NBEST.items()})


class TestNBestFieldTypes:
    """An n-best record, field, ``hyps`` value or hypothesis of the wrong JSON
    type, or a number out of its field's range."""

    test_exits_2 = refused_each({
        **{f"{command}-{field}-{case}": (
            READS_NBEST[command], f'{{w}}/d.nbest:1: bad n-best record: "{field}" needs a ',
            {"d.nbest": _lines(dict(RECORD, **{field: value}) if field in RECORD else
                               dict(RECORD, hyps=[dict(HYP, **{field: value})]))})
           for field, value, case in [("tokens", [1, 2], "value0"), ("tokens", "play_", "play_"),
                                      ("text", 3, 3), ("id", 7, 7), ("ref", None, None)]
           for command in ["eval", "rescore"]},
        **{f"{command}-{name}": (
            argv, f'{{w}}/d.nbest:1: bad n-best record: "{field}" needs a {kind}, got ',
            {"d.nbest": line})
           for name, line, field, kind in [
               ("record-list", "[1]\n", "record", "dict"),
               ("record-string", '"x"\n', "record", "dict"),
               ("record-null", "null\n", "record", "dict"),
               ("hyps-string", _lines(dict(RECORD, hyps="call bodu")), "hyps", "list"),
               ("hypothesis-number", _lines(dict(RECORD, hyps=[1])), "hypothesis", "dict"),
           ]
           for command, argv in READS_NBEST.items()},
        **{f"{command}-{field}-{case}": (
            argv, f"{{w}}/d.nbest:1: bad n-best record: {message}\n",
            {"d.nbest": _lines(dict(RECORD, **{field: value}) if field in RECORD else
                               dict(RECORD, hyps=[dict(HYP, **{field: value})]))})
           for field, value, case, message in [
               ("lambda", True, "true", '"lambda" needs a number, got True'),
               ("rnnt_logp", "-1.5", "string", "\"rnnt_logp\" needs a number, got '-1.5'"),
               ("sf_score", False, "false", '"sf_score" needs a number, got False'),
               ("rnnt_logp", -10 ** 400, "huge", '"rnnt_logp" is out of range'),
               ("lambda", math.nan, "nan", '"lambda" is not finite'),
               ("lambda", math.inf, "infinity", '"lambda" is not finite'),
               ("lambda", -1.0, "negative", '"lambda" is negative'),
               ("rnnt_logp", -math.inf, "infinity", '"rnnt_logp" is not finite'),
               ("sf_score", math.nan, "nan", '"sf_score" is not finite'),
           ]
           for command, argv in READS_NBEST.items()},
    })

    @pytest.mark.usefixtures("built")
    def test_json_integers_are_numbers(self, workdir):
        (workdir / "d.nbest").write_text(
            _lines(dict(RECORD, hyps=[dict(HYP, rnnt_logp=-1, sf_score=0)], **{"lambda": 2})))
        assert run(*_argv(EVAL, workdir)) == 0
        nb, = read_nbest(workdir / "d.nbest")
        assert (nb.lam, nb.hyps[0].rnnt_logp, nb.hyps[0].sf_score) == (2.0, -1.0, 0.0)


class TestRefsCoverDev:
    test_missing_id_exits_2 = refused_each({
        command: (f"{argv} --refs {{w}}/refs.tsv",
                  "{w}/refs.tsv: no reference for utterance 'general-t0009' of {w}/d.nbest",
                  {"d.nbest": _lines(RECORD, dict(RECORD, id="general-t0009"))})
        for command, argv in [("eval", EVAL), ("tune", TUNE)]})


class TestBaselineIds:
    """``eval --baseline`` names the baseline file and the first utterance id
    that only one of the two runs holds."""

    test_differing_id_exits_2 = refused_each({
        "missing-from-baseline": (
            f"{EVAL} --baseline {{w}}/b.nbest",
            "{w}/b.nbest: no utterance 'general-t0009' of {w}/d.nbest\n",
            {"d.nbest": _lines(RECORD, dict(RECORD, id="general-t0009")),
             "b.nbest": _lines(RECORD)}),
        "missing-from-run": (
            f"{EVAL} --baseline {{w}}/b.nbest",
            "{w}/b.nbest: utterance 'general-t0009' is not in {w}/d.nbest\n",
            {"d.nbest": _lines(RECORD),
             "b.nbest": _lines(dict(RECORD, id="general-t0009"), RECORD)}),
    })


class TestInvalidUtf8:
    """Text that is not UTF-8, whichever reader meets it."""

    test_exits_2_naming_the_file = refused_each({
        reader: (argv, f"{{w}}/{name}: not UTF-8 text", {name: _not_utf8(name)})
        for reader, (name, argv) in sorted(READERS.items())})

    @pytest.mark.usefixtures("built")
    def test_intact_files_exit_0(self, workdir):
        for _, command_line in READERS.values():
            assert run(*_argv(command_line, workdir)) == 0
