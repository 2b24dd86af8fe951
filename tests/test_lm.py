import contextlib
import dataclasses
import io
import json
import math
import random
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from biaslattice.cli import main
from biaslattice.context import Span, parse_annotated
from biaslattice.errors import InputFormatError
from biaslattice.lm import (
    BOS,
    EOS_WORD,
    UNK,
    load_lm,
    read_arpa,
    read_members,
    surface_prob,
    train_kn_lm,
    write_arpa,
    write_members,
)
from conftest import BAD_ARPA, UNDERFLOW_ARPA
from oracles import RefKN, reference_train_kn_lm


LN10 = math.log(10.0)


def random_corpus(rng, vocab="abcde", n_sentences=8, max_len=6):
    lines = []
    for _ in range(n_sentences):
        n = rng.randint(1, max_len)
        lines.append(" ".join(rng.choice(vocab) for _ in range(n)))
    return lines


def enumerate_contexts(tokens, order):
    """All padded contexts of length order-1 over the given tokens."""
    import itertools

    ctxs = set()
    for k in range(order):
        for body in itertools.product(tokens, repeat=k):
            ctx = (BOS,) * (order - 1 - k) + body
            ctxs.add(ctx)
    return sorted(ctxs)


class TestTraining:
    def test_two_word_sentence_bigram(self):
        lm = train_kn_lm(["a b"], order=2)
        p = math.exp(lm.cond_logprob(("a",), "b"))
        assert 0.0 < p <= 1.0
        total = sum(math.exp(lm.cond_logprob(("a",), w)) for w in lm.vocab)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_vocab_contents(self):
        lm = train_kn_lm(["a b", "b c"], order=2)
        assert {"a", "b", "c", EOS_WORD, UNK} <= set(lm.vocab)
        assert BOS not in lm.vocab

    def test_normalization_all_contexts_exhaustive(self):
        lines = ["a b a c", "b b a", "c a b", "a", "c c b a b"]
        for order in (1, 2, 3, 4):
            lm = train_kn_lm(lines, order=order)
            body = sorted(set("abc")) + [EOS_WORD, UNK]
            for ctx in enumerate_contexts(body, order):
                total = sum(math.exp(lm.cond_logprob(ctx, w)) for w in lm.vocab)
                assert total == pytest.approx(1.0, abs=1e-6), (order, ctx)

    def test_matches_reference_on_random_corpora(self):
        rng = random.Random(2024)
        for trial in range(20):
            order = rng.choice([2, 3, 4])
            lines = random_corpus(rng, n_sentences=rng.randint(2, 10))
            lm = train_kn_lm(lines, order=order)
            ref = RefKN([ln.split() for ln in lines], order)
            probes = [
                random_corpus(rng, vocab="abcdef", n_sentences=1, max_len=5)[0].split()
                for _ in range(8)
            ]
            for words in probes:
                got = lm.logprob(words)
                want = ref.sentence_logprob(words)
                assert got == pytest.approx(want, abs=1e-9), (trial, order, words)

    def test_training_sentence_dominates_unseen(self):
        lm = train_kn_lm(["the cat sat on the mat"] * 3 + ["the dog sat"], order=3)
        seen = lm.logprob("the cat sat on the mat".split())
        unseen = lm.logprob("mat the on sat cat the".split())
        assert seen > unseen

    def test_empty_sequence_is_eos_given_bos(self):
        lm = train_kn_lm(["a b"], order=2)
        assert lm.logprob([]) == pytest.approx(
            lm.cond_logprob((BOS,), EOS_WORD), abs=1e-12
        )

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputFormatError):
            train_kn_lm(["", "# comment"], order=2)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            train_kn_lm(["a"], order=0)


class TestClasses:
    def test_factorization_identity(self):
        lm = train_kn_lm(["call @contactname(john)"] * 3, order=2)
        ctx = (BOS,) * 1
        # advance the context through "call"
        _, tok = surface_prob(lm, ctx, "call")
        ctx2 = (tok,)
        lp_john, tok2 = surface_prob(lm, ctx2, "john")
        want = lm.cond_logprob(ctx2, "@contactname") + lm.classes["@contactname"]["john"] * LN10
        assert lp_john == pytest.approx(want, rel=1e-12)
        assert tok2 == "@contactname"

    def test_members_normalize(self):
        lines = ["call @contactname(ada)"] * 2 + ["call @contactname(grace)"] * 3
        lm = train_kn_lm(lines, order=2)
        total = sum(10 ** v for v in lm.classes["@contactname"].values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert 10 ** lm.classes["@contactname"]["grace"] == pytest.approx(0.6)

    def test_surface_normalization_with_classes(self):
        lines = ["call @contactname(ada)"] * 4 + ["play music"] * 3
        lm = train_kn_lm(lines, order=2)
        members = set(lm.classes["@contactname"])
        surface = (set(lm.vocab) - {"@contactname"}) | members
        for ctx_tok in ["call", "play", UNK]:
            total = sum(math.exp(surface_prob(lm, (ctx_tok,), w)[0]) for w in surface)
            assert total == pytest.approx(1.0, abs=1e-6), ctx_tok

    def test_multi_word_span_becomes_per_word_members(self):
        lm = train_kn_lm(["call @contactname(ada lovelace)"] * 2, order=2)
        assert set(lm.classes["@contactname"]) == {"ada", "lovelace"}

    def test_oov_word_scores_as_unknown(self):
        lm = train_kn_lm(["a b"], order=2)
        lp, tok = surface_prob(lm, (BOS,), "zzz")
        assert tok == UNK
        assert lp == lm.cond_logprob((BOS,), UNK)


# Corpus words: case variants, a carrier word, and the literal sentence markers.
_CORPUS_WORDS = st.sampled_from(("a", "B", "b", "call", "<s>", "<S>", "</s>"))
_SPANS = st.builds(lambda tag, words: f"{tag}({' '.join(words)})",
                   st.sampled_from(("@x", "@X", "@y")),
                   st.lists(_CORPUS_WORDS, min_size=1, max_size=3))
_MALFORMED = st.sampled_from(("@x(", "a @x() b", "a(b", "call @x(a)b", "@(a)", "B @Y(a"))


@st.composite
def _training_corpora(draw):
    """(corpus lines, whether a malformed line was put in).  A few distinct
    lines (plain, with one- or multi-word spans, blank, ``#`` comments) are
    drawn and repeated, each copy maybe upper- or title-cased and padded;
    then one tag may get many members, and a malformed line may go in once
    or twice, anywhere."""
    pool = draw(st.lists(
        st.lists(_CORPUS_WORDS | _SPANS, min_size=1, max_size=5).map(" ".join)
        | st.sampled_from(("", "  ", "# a comment", "#@x(")),
        min_size=1, max_size=6))
    variant = st.tuples(st.sampled_from(pool), st.sampled_from((str, str.upper, str.title)),
                        st.sampled_from(("", " ", "\t")), st.sampled_from(("", "\n", " \n")))
    lines = [pad + case(line) + end
             for line, case, pad, end in draw(st.lists(variant, max_size=30))]
    lines += [f"call @x(m{i})" for i in range(draw(st.integers(0, 40)))]
    lines = list(draw(st.permutations(lines)))
    malformed = draw(st.booleans())
    if malformed:
        bad = draw(_MALFORMED)
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines, malformed


def _model_bytes(model):
    """The ARPA and members files ``model`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        write_arpa(model, Path(tmp) / "m.arpa")
        write_members(model, Path(tmp) / "m.members")
        return (Path(tmp) / "m.arpa").read_bytes(), (Path(tmp) / "m.members").read_bytes()


def _trained(train, lines, order):
    """The model ``train`` fits, or the message of the input error it raises."""
    try:
        return train(lines, order=order, source="corpus.txt")
    except InputFormatError as exc:
        return str(exc)


def _faults(lines):
    """``(line number, "malformed" or "marker")`` of each corpus line that
    fails to parse or holds a sentence marker, in line order."""
    out = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip().lower()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = parse_annotated(line)
        except InputFormatError:
            out.append((lineno, "malformed"))
            continue
        words = {w for tok in tokens for w in (tok.words if isinstance(tok, Span) else (tok,))}
        if words & {BOS, EOS_WORD}:
            out.append((lineno, "marker"))
    return out


class TestDistinctLineTraining:
    """``train_kn_lm`` parses each distinct line once and counts each
    distinct token sequence once, weighted by its multiplicity; the model
    is the one line-by-line training gives, field by field.  The reference
    counts a literal sentence marker as a boundary, which the trainer
    refuses: a corpus holding one must fail at its first faulty line."""

    @settings(max_examples=300, deadline=None)
    @given(corpus=_training_corpora(), order=st.integers(1, 4))
    @example(corpus=(["a", "a", "@x(", "a", "@x("], True), order=2)
    @example(corpus=(["A b", "a B", "call @x(a)", "CALL @X(b a)", "# c", ""], False), order=3)
    def test_matches_line_by_line_training(self, corpus, order):
        lines, malformed = corpus
        got = _trained(train_kn_lm, lines, order)
        faults = _faults(lines)
        if any(fault == "marker" for _, fault in faults):
            lineno, fault = faults[0]
            assert isinstance(got, str) and got.startswith(f"corpus.txt:{lineno}: ")
            assert ("reserved sentence marker" in got) == (fault == "marker")
            return
        want = _trained(reference_train_kn_lm, lines, order)
        if isinstance(want, str):
            assert got == want
            return
        assert not malformed
        assert isinstance(got, type(want))
        assert got.order == want.order
        assert got.vocab == want.vocab
        assert got.logprobs == want.logprobs and list(got.logprobs) == list(want.logprobs)
        assert got.backoffs == want.backoffs and list(got.backoffs) == list(want.backoffs)
        assert got.classes == want.classes
        assert [list(m) for m in got.classes.values()] == [list(m) for m in want.classes.values()]
        assert list(got.classes) == list(want.classes)
        assert _model_bytes(got) == _model_bytes(want)

    def test_malformed_line_named_at_its_first_copy(self):
        lines = ["call @x(a)", "call @x(a)", "", "a(b", "call @x(a)", "A(B"]
        with pytest.raises(InputFormatError, match=r"^corpus\.txt:4: "):
            train_kn_lm(lines, order=2, source="corpus.txt")

    @pytest.mark.parametrize("line, marker", [
        ("a <s> b", "<s>"), ("a </S> b", "</s>"), ("call @x(<s>)", "<s>"),
        ("<s> a </s>", "</s> <s>"),
    ])
    def test_sentence_marker_refused(self, line, marker):
        with pytest.raises(InputFormatError) as info:
            train_kn_lm(["a b", line, "a b", line], order=2, source="corpus.txt")
        want = f"corpus.txt:2: reserved sentence marker in training text: {marker}"
        assert str(info.value) == want

    def test_unknown_word_marker_allowed(self):
        lm = train_kn_lm(["a <unk> b", "call @x(<UNK>)"], order=2)
        assert lm.classes["@x"] == {UNK: 0.0}

    def test_member_normalization_is_linear(self):
        # 32,000 members under one tag.  Summing the tag's member counts once
        # per member made this quadratic: about 7 s on a 2-CPU x86-64 host.
        lines = [f"call @contactname(n{i}a n{i}b)" for i in range(16_000)]
        start = time.perf_counter()
        lm = train_kn_lm(lines, order=2)
        assert time.perf_counter() - start < 3.0
        for members in lm.classes.values():
            assert math.fsum(10 ** lp for lp in members.values()) == pytest.approx(1.0)
        assert len(lm.classes["@contactname"]) == 32_000


class TestModelFiles:
    def test_arpa_round_trip(self, tmp_path):
        rng = random.Random(5)
        lines = random_corpus(rng, n_sentences=12)
        lm = train_kn_lm(lines, order=3)
        path = tmp_path / "model.arpa"
        write_arpa(lm, path)
        loaded = read_arpa(path)
        assert loaded.order == lm.order
        for _ in range(20):
            words = random_corpus(rng, vocab="abcdefg", n_sentences=1)[0].split()
            assert loaded.logprob(words) == lm.logprob(words)

    def test_members_round_trip(self, tmp_path):
        lm = train_kn_lm(["call @contactname(ada)", "call @contactname(bo)"], order=2)
        path = tmp_path / "members.tsv"
        write_members(lm, path)
        got = read_members(path)
        for tag, members in lm.classes.items():
            for w, lp in members.items():
                assert got[tag][w] == lp

    def test_load_lm_with_members(self, tmp_path):
        lm = train_kn_lm(["call @contactname(ada)"] * 3 + ["play music"], order=2)
        write_arpa(lm, tmp_path / "m.arpa")
        write_members(lm, tmp_path / "m.members")
        loaded = load_lm(tmp_path / "m.arpa", tmp_path / "m.members")
        words = ["call", "ada"]
        assert loaded.logprob(words) == lm.logprob(words)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.arpa"
        p.write_text("no header\n")
        with pytest.raises(InputFormatError, match="data"):
            read_arpa(p)

    def test_bad_gram_line_rejected(self, tmp_path):
        p = tmp_path / "bad.arpa"
        p.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\nnot-a-number a\n\\end\\\n")
        with pytest.raises(InputFormatError, match="gram line"):
            read_arpa(p)

    @pytest.mark.parametrize("case", sorted(BAD_ARPA))
    def test_unscorable_file_rejected(self, tmp_path, case):
        text, line, message = BAD_ARPA[case]
        p = tmp_path / "m.arpa"
        p.write_text(text)
        with pytest.raises(InputFormatError, match=f"^{re.escape(f'{p}:{line}: {message}')}"):
            read_arpa(p)

    def arpa(self, tmp_path, *grams):
        p = tmp_path / "m.arpa"
        p.write_text("\\data\\\nngram 1=%d\n\n\\1-grams:\n%s\n\\end\\\n"
                     % (len(grams), "".join(g + "\n" for g in grams)))
        return p

    @pytest.mark.parametrize("grams, missing", [
        (["-1\ta"], "</s> <unk>"),
        (["-1\ta", "-1\t<unk>"], "</s>"),
        (["-1\ta", "-1\t</s>"], "<unk>"),
        (["-1\ta", "-99\t</s>", "-1\t<unk>"], "</s>"),
    ])
    def test_sentence_end_and_unknown_unigrams_required(self, tmp_path, grams, missing):
        p = self.arpa(tmp_path, *grams)
        with pytest.raises(InputFormatError) as info:
            read_arpa(p)
        assert str(info.value) == f"{p}: no unigram log-prob for {missing}"

    # 1e308 is a finite log10 value, yet 10^1e308 is not: such a back-off is
    # refused as past what a score can hold.
    @pytest.mark.parametrize("value, error", [
        *(pytest.param(v, "non-finite back-off", id=v) for v in ("inf", "-inf", "nan")),
        pytest.param("1e308", "back-off too large to score", id="1e308"),
    ])
    def test_non_finite_backoff_rejected(self, tmp_path, value, error):
        p = self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"-1\ta\t{value}")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:7: {error}"):
            read_arpa(p)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_logprob_rejected(self, tmp_path, value):
        p = self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"{value}\ta")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:7: non-finite log-prob"):
            read_arpa(p)

    @pytest.mark.parametrize("value", ["-99", "-inf"])
    def test_backoff_only_gram_keeps_its_meaning(self, tmp_path, value):
        p = self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"{value}\ta\t-0.5")
        lm = read_arpa(p)
        assert ("a",) not in lm.logprobs and "a" not in lm.vocab
        assert lm.backoffs[("a",)] == -0.5

    # A member log10-prob of 1e308 is finite, and refused as above 0.
    @pytest.mark.parametrize("value, error", [
        *(pytest.param(v, "non-finite logprob", id=v) for v in ("nan", "inf", "-inf")),
        pytest.param("1e308", "logprob above 0", id="1e308"),
    ])
    def test_non_finite_member_logprob_rejected(self, tmp_path, value, error):
        p = tmp_path / "m.members"
        p.write_text(f"@contactname\tada\t-0.3\n@contactname\tbo\t{value}\n")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:2: {error}"):
            read_members(p)

    @pytest.mark.parametrize("value", ["400", "0.001", "1e308"])
    def test_logprob_above_zero_rejected(self, tmp_path, value):
        p = self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"{value}\ta")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:7: log-prob above 0"):
            read_arpa(p)

    @pytest.mark.parametrize("value", ["0", "-0", "1e-9", "1e-6"])
    def test_logprob_a_rounding_error_above_zero_loads(self, tmp_path, value):
        lm = read_arpa(self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"{value}\ta"))
        assert lm.logprobs[("a",)] == float(value)

    def trigram_arpa(self, tmp_path, bow):
        p = tmp_path / "m.arpa"
        p.write_text(
            "\\data\\\nngram 1=3\nngram 2=1\nngram 3=1\n\n"
            f"\\1-grams:\n-1\t</s>\n-1\t<unk>\n-1\ta\t{bow}\n\n"
            f"\\2-grams:\n-1\ta a\t{bow}\n\n"
            "\\3-grams:\n-1\ta a a\n\n\\end\\\n"
        )
        return p

    def test_backoff_whose_score_overflows_rejected(self, tmp_path):
        # Scoring </s> after "a a" charges both back-offs: 10^400, past any float.
        p = self.trigram_arpa(tmp_path, 200)
        with pytest.raises(InputFormatError,
                           match=f"^{re.escape(str(p))}:9: back-off too large to score"):
            read_arpa(p)
        # A unigram model charges no back-off, yet one that large is refused too.
        p = self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", "-1\ta\t400")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:7: back-off too large"):
            read_arpa(p)

    def test_largest_loadable_backoffs_score(self, tmp_path):
        lm = read_arpa(self.trigram_arpa(tmp_path, 150))
        assert lm.logprob(["a", "a", "a"]) < math.inf
        assert lm.cond_logprob(("a", "a"), EOS_WORD) == pytest.approx(299 * math.log(10.0))

    def test_backoff_whose_score_underflows_rejected(self, tmp_path):
        # Scoring </s> after "a a" charges both back-offs: 10^-400, below any float.
        p = self.trigram_arpa(tmp_path, -200)
        with pytest.raises(InputFormatError,
                           match=f"^{re.escape(str(p))}:9: back-off too small to score"):
            read_arpa(p)

    def test_smallest_loadable_backoffs_score(self, tmp_path):
        lm = read_arpa(self.trigram_arpa(tmp_path, -150))
        assert math.isfinite(lm.logprob(["a", "a", "a"]))
        assert lm.cond_logprob(("a", "a"), EOS_WORD) == pytest.approx(-301 * math.log(10.0))

    def test_member_logprob_whose_score_underflows_rejected(self, tmp_path):
        p = tmp_path / "m.members"
        p.write_text("@contactname\tada\t-300\n@contactname\tbo\t-400\n")
        with pytest.raises(InputFormatError,
                           match=f"^{re.escape(str(p))}:2: logprob too small to score"):
            read_members(p)

    def test_model_whose_every_path_underflows_rejected(self, tmp_path):
        # The floor example below with -7e307 in place of -308.25: both class
        # paths of "a" would sum to -inf, and their log-sum-exp to NaN.
        p = tmp_path / "m.arpa"
        p.write_text(_FLOOR_ARPA.replace("-308.25", "-7e307"))
        with pytest.raises(InputFormatError, match="back-off too small to score"):
            read_arpa(p)
        m = tmp_path / "m.members"
        m.write_text(_FLOOR_MEMBERS.replace("-308.25", "-7e307"))
        with pytest.raises(InputFormatError, match="logprob too small to score"):
            read_members(m)

    def test_member_logprob_above_zero_rejected(self, tmp_path):
        p = tmp_path / "m.members"
        p.write_text("@contactname\tada\t-0.3\n@contactname\tbo\t400\n")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:2: logprob above 0"):
            read_members(p)

    def test_every_trained_model_loads(self, tmp_path):
        rng = random.Random(17)
        for _ in range(40):
            lines = random_corpus(rng, n_sentences=rng.randint(1, 10))
            lines += [f"call @contactname({rng.choice('abc')})"] * rng.randint(0, 3)
            lm = train_kn_lm(lines, order=rng.randint(1, 4))
            write_arpa(lm, tmp_path / "m.arpa")
            write_members(lm, tmp_path / "m.members")
            loaded = load_lm(tmp_path / "m.arpa", tmp_path / "m.members")
            words = lines[0].split()
            assert loaded.logprob(words) == lm.logprob(words)

    def test_bad_members_line_rejected(self, tmp_path):
        p = tmp_path / "bad.members"
        p.write_text("contactname\tada\t-1\n")
        with pytest.raises(InputFormatError):
            read_members(p)


_WORDS = ("a", "b", "c", "<s>", "@x")
_LOG10_PROBS = st.floats(-99.0, 1e-6)  # down to the back-off-only cutoff
_LOG10_MAX = math.log(1.7976931348623157e308) / math.log(10.0)  # about 308.25
# At the readers' floor: one back-off and each member of "a" near 10^-308.
_FLOOR_ARPA = (
    "\\data\\\nngram 1=5\nngram 2=1\n\n"
    "\\1-grams:\n-1\t</s>\n-1\t<unk>\n-98\t@x\n-98\t@y\n-99\t<s>\t-308.25\n\n"
    "\\2-grams:\n-1\t<s> </s>\n\n\\end\\\n"
)
_FLOOR_MEMBERS = "@x\ta\t-308.25\n@y\ta\t-308.25\n"


@st.composite
def _accepted_model_files(draw):
    """ARPA text of order 1-4 and member-file text, over a few words, a class
    tag and ``<s>``.  Log10-probs run from the back-off-only cutoff (-99) to
    the rounding tolerance above 0.  Log10 back-offs run over the whole range
    ``read_arpa`` accepts at the model's order: order - 1 of them summed stay
    within about +-308.25, the log10 of the largest float.  Member log10-probs
    run from -308.25 to the rounding tolerance above 0, for words in and out
    of the vocabulary.  Sequences hold at most 8 words."""
    order = draw(st.integers(1, 4))
    bow_max = _LOG10_MAX / max(order - 1, 1)
    backoffs = st.none() | st.floats(-bow_max, bow_max)
    grams = {("</s>",): None, ("<unk>",): None}
    for k in range(1, order + 1):
        for gram in draw(st.lists(st.tuples(*[st.sampled_from(_WORDS)] * k), max_size=6)):
            grams[gram] = None
    sections = []
    for k in range(1, order + 1):
        lines = []
        for gram in sorted(g for g in grams if len(g) == k):
            line = f"{draw(_LOG10_PROBS)!r}\t{' '.join(gram)}"
            bow = draw(backoffs) if k < order else None
            lines.append(line if bow is None else f"{line}\t{bow!r}")
        sections.append((k, lines))
    arpa = "\\data\\\n" + "".join(f"ngram {k}={len(lines)}\n" for k, lines in sections)
    for k, lines in sections:
        arpa += f"\n\\{k}-grams:\n" + "".join(line + "\n" for line in lines)
    arpa += "\n\\end\\\n"
    members = draw(st.dictionaries(st.sampled_from(["a", "b", "d"]),
                                   st.floats(-_LOG10_MAX, 1e-6)))
    return arpa, "".join(f"@x\t{word}\t{lp!r}\n" for word, lp in members.items())


def _load_accepted(files, tmp: Path):
    """The model from ``_accepted_model_files``' text, or a rejected example."""
    arpa, members = files
    (tmp / "m.arpa").write_text(arpa)
    (tmp / "m.members").write_text(members)
    try:
        return load_lm(tmp / "m.arpa", tmp / "m.members")
    except InputFormatError:
        reject()


def _nbest_line(utt_id: str, sentences) -> str:
    """One n-best JSON record whose hypotheses are ``sentences``, best first."""
    hyps = [{"text": " ".join(words), "tokens": [w + "_" for w in words],
             "rnnt_logp": -float(i), "sf_score": 0.0} for i, words in enumerate(sentences)]
    return json.dumps({"id": utt_id, "ref": " ".join(sentences[0]), "lambda": 1.0,
                       "hyps": hyps}) + "\n"


# Surface words for n-best hypotheses: the model's words and tag, uppercase
# forms of them, a member-only word ("d"), and unknown words.
_HYP_WORDS = st.sampled_from(_WORDS + ("A", "C", "@X", "d", "D", "zzz", "Zzz"))


@st.composite
def _shared_prefix_lists(draw):
    """One n-best list: 1-6 hypotheses, each a prefix (0-6 words, possibly
    empty) of one stem of up to 6 words, followed by up to 2 more words.  So
    hypotheses share prefixes, repeat, and may be empty."""
    stem = draw(st.lists(_HYP_WORDS, max_size=6))
    return [
        stem[: draw(st.integers(0, len(stem)))] + draw(st.lists(_HYP_WORDS, max_size=2))
        for _ in range(draw(st.integers(1, 6)))
    ]


class TestLogDomain:
    """``surface_prob`` mixes paths in the log domain, so no accepted model
    scores a word sequence as 0 probability."""

    def test_underflowing_back_off_scores_finite(self, tmp_path):
        p = tmp_path / "m.arpa"
        p.write_text(UNDERFLOW_ARPA)
        lm = read_arpa(p)
        assert lm.logprob(["a", "a"]) == pytest.approx(-497 * math.log(10.0))

    def test_class_and_word_paths_mix(self):
        lm = train_kn_lm(["call @contactname(john)", "call john"] * 3, order=2)
        lp, tok = surface_prob(lm, ("call",), "john")
        word = lm.cond_logprob(("call",), "john")
        tag = lm.cond_logprob(("call",), "@contactname") + lm.classes["@contactname"]["john"] * LN10
        assert lp == pytest.approx(math.log(math.exp(word) + math.exp(tag)), rel=1e-12)
        assert tok == ("john" if word >= tag else "@contactname")

    @given(_accepted_model_files(), st.lists(st.sampled_from(_WORDS + ("d", "zzz")),
                                             max_size=8))
    @example((UNDERFLOW_ARPA, ""), ["a", "a"])
    @example((_FLOOR_ARPA, _FLOOR_MEMBERS), ["a"] * 8)
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_model_scores_finite(self, files, words):
        """``logprob`` is finite, and ``biaslattice rescore`` and ``tune``
        exit 0 on a two-list n-best file built from the words, with the model
        as both the generic and the contacts model (a catalog word routes)."""
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            lm = _load_accepted(files, d)
            assert math.isfinite(lm.logprob(words))
            (d / "catalog.tsv").write_text("a\t1.5\n")
            (d / "dev.nbest").write_text(
                _nbest_line("contacts-0", [words, words[: len(words) // 2], []])
                + _nbest_line("general-0", [words[::-1], words[1:]])
            )
            lms = ["--lm-generic", d / "m.arpa", "--lm-contacts", d / "m.arpa",
                   "--lm-members", d / "m.members", "--catalog", d / "catalog.tsv"]
            for argv in (["rescore", "--nbest", d / "dev.nbest", *lms, "--beta", "1",
                          "--out", d / "out.nbest"],
                         ["tune", "--dev", d / "dev.nbest", *lms, "--budget", "30"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([str(a) for a in argv])
                assert code == 0, (argv[0], err.getvalue())

    @given(_accepted_model_files(), st.lists(_shared_prefix_lists(), min_size=1, max_size=3))
    @example((_FLOOR_ARPA, _FLOOR_MEMBERS), [[[], ["a"], ["a", "A"], [], ["a", "zzz"]]])
    @settings(max_examples=200, deadline=None)
    def test_nbest_logprob_is_logprob(self, files, lists):
        """The batched scores equal ``logprob`` with ``==``, list after list
        on one model, so no call leaves state that the next one reads.
        Models are those of ``_accepted_model_files``; up to 3 lists, each as
        ``_shared_prefix_lists`` bounds it (at most 6 hypotheses of at most 8
        words)."""
        with tempfile.TemporaryDirectory() as tmp:
            lm = _load_accepted(files, Path(tmp))
        for sentences in lists:
            assert lm.nbest_logprob(sentences) == [lm.logprob(s) for s in sentences]


_MODEL_WORDS = st.sampled_from(("a", "b", "call", "Ada", "<unk>"))
_MODEL_SPANS = st.builds(lambda tag, words: f"{tag}({' '.join(words)})",
                         st.sampled_from(("@x", "@y")),
                         st.lists(_MODEL_WORDS, min_size=1, max_size=3))
# 1-12 lines of 1-5 words or spans; a small alphabet makes lines repeat.
_ANNOTATED_CORPORA = st.lists(
    st.lists(_MODEL_WORDS | _MODEL_SPANS, min_size=1, max_size=5).map(" ".join),
    min_size=1, max_size=12)


class TestWrittenModelReadsBack:
    """A model holds the log10 numbers its files hold, so a written model
    reads back ``==`` field by field and scores ``==`` to the one in memory."""

    @given(_ANNOTATED_CORPORA, st.integers(1, 4),
           st.lists(_shared_prefix_lists(), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_files_read_back_equal(self, corpus, order, lists):
        lm = train_kn_lm(corpus, order=order)
        with tempfile.TemporaryDirectory() as tmp:
            arpa, members = Path(tmp) / "m.arpa", Path(tmp) / "m.members"
            write_arpa(lm, arpa)
            write_members(lm, members)
            loaded = load_lm(arpa, members)
        assert (loaded.order, loaded.vocab) == (lm.order, lm.vocab)
        assert loaded.logprobs == lm.logprobs
        assert loaded.backoffs == lm.backoffs
        assert loaded.classes == lm.classes
        for sentences in lists:
            assert loaded.nbest_logprob(sentences) == lm.nbest_logprob(sentences)

    def test_fields_are_frozen(self):
        lm = train_kn_lm(["call @x(ada)"], order=2)
        lm.logprob(["call", "ada"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            lm.classes = {}
