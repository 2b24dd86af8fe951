import math
import random
import re

import pytest

from biaslattice.errors import InputFormatError
from biaslattice.lm import (
    BOS,
    EOS_WORD,
    UNK,
    lm_logprob,
    load_lm,
    read_arpa,
    read_members,
    surface_prob,
    train_kn_lm,
    write_arpa,
    write_members,
)
from oracles import RefKN


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
                got = lm_logprob(lm, words)
                want = ref.sentence_logprob(words)
                assert got == pytest.approx(want, abs=1e-9), (trial, order, words)

    def test_training_sentence_dominates_unseen(self):
        lm = train_kn_lm(["the cat sat on the mat"] * 3 + ["the dog sat"], order=3)
        seen = lm_logprob(lm, "the cat sat on the mat".split())
        unseen = lm_logprob(lm, "mat the on sat cat the".split())
        assert seen > unseen

    def test_empty_sequence_is_eos_given_bos(self):
        lm = train_kn_lm(["a b"], order=2)
        assert lm_logprob(lm, []) == pytest.approx(
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
        p_call, tok = surface_prob(lm, ctx, "call")
        ctx2 = (tok,)
        p_john, tok2 = surface_prob(lm, ctx2, "john")
        want = math.exp(lm.cond_logprob(ctx2, "@contactname")) * math.exp(
            lm.classes["@contactname"]["john"]
        )
        assert p_john == pytest.approx(want, rel=1e-12)
        assert tok2 == "@contactname"

    def test_members_normalize(self):
        lines = ["call @contactname(ada)"] * 2 + ["call @contactname(grace)"] * 3
        lm = train_kn_lm(lines, order=2)
        total = sum(math.exp(v) for v in lm.classes["@contactname"].values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert math.exp(lm.classes["@contactname"]["grace"]) == pytest.approx(0.6)

    def test_surface_normalization_with_classes(self):
        lines = ["call @contactname(ada)"] * 4 + ["play music"] * 3
        lm = train_kn_lm(lines, order=2)
        members = set(lm.classes["@contactname"])
        surface = (set(lm.vocab) - {"@contactname"}) | members
        for ctx_tok in ["call", "play", UNK]:
            total = sum(surface_prob(lm, (ctx_tok,), w)[0] for w in surface)
            assert total == pytest.approx(1.0, abs=1e-6), ctx_tok

    def test_multi_word_span_becomes_per_word_members(self):
        lm = train_kn_lm(["call @contactname(ada lovelace)"] * 2, order=2)
        assert set(lm.classes["@contactname"]) == {"ada", "lovelace"}

    def test_oov_word_scores_as_unknown(self):
        lm = train_kn_lm(["a b"], order=2)
        p, tok = surface_prob(lm, (BOS,), "zzz")
        assert tok == UNK
        assert p == pytest.approx(math.exp(lm.cond_logprob((BOS,), UNK)), rel=1e-12)


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
            assert lm_logprob(loaded, words) == pytest.approx(
                lm_logprob(lm, words), abs=1e-9
            )

    def test_members_round_trip(self, tmp_path):
        lm = train_kn_lm(["call @contactname(ada)", "call @contactname(bo)"], order=2)
        path = tmp_path / "members.tsv"
        write_members(lm, path)
        got = read_members(path)
        for tag, members in lm.classes.items():
            for w, lp in members.items():
                assert got[tag][w] == pytest.approx(lp, abs=1e-9)

    def test_load_lm_with_members(self, tmp_path):
        lm = train_kn_lm(["call @contactname(ada)"] * 3 + ["play music"], order=2)
        write_arpa(lm, tmp_path / "m.arpa")
        write_members(lm, tmp_path / "m.members")
        loaded = load_lm(tmp_path / "m.arpa", tmp_path / "m.members")
        words = ["call", "ada"]
        assert lm_logprob(loaded, words) == pytest.approx(lm_logprob(lm, words), abs=1e-9)

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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e308"])
    def test_non_finite_backoff_rejected(self, tmp_path, value):
        p = self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"-1\ta\t{value}")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:7: non-finite back-off"):
            read_arpa(p)

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308"])
    def test_non_finite_logprob_rejected(self, tmp_path, value):
        p = self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"{value}\ta")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:7: non-finite log-prob"):
            read_arpa(p)

    @pytest.mark.parametrize("value", ["-99", "-inf"])
    def test_backoff_only_gram_keeps_its_meaning(self, tmp_path, value):
        p = self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"{value}\ta\t-0.5")
        lm = read_arpa(p)
        assert ("a",) not in lm.logprobs and "a" not in lm.vocab
        assert lm.backoffs[("a",)] == pytest.approx(-0.5 * math.log(10.0))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_member_logprob_rejected(self, tmp_path, value):
        p = tmp_path / "m.members"
        p.write_text(f"@contactname\tada\t-0.3\n@contactname\tbo\t{value}\n")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:2: non-finite logprob"):
            read_members(p)

    @pytest.mark.parametrize("value", ["400", "0.001"])
    def test_logprob_above_zero_rejected(self, tmp_path, value):
        p = self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"{value}\ta")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(p))}:7: log-prob above 0"):
            read_arpa(p)

    @pytest.mark.parametrize("value", ["0", "-0", "1e-9", "1e-6"])
    def test_logprob_a_rounding_error_above_zero_loads(self, tmp_path, value):
        lm = read_arpa(self.arpa(tmp_path, "-1\t</s>", "-1\t<unk>", f"{value}\ta"))
        assert lm.logprobs[("a",)] == float(value) * math.log(10.0)

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
        assert lm_logprob(lm, ["a", "a", "a"]) < math.inf
        assert lm.cond_logprob(("a", "a"), EOS_WORD) == pytest.approx(299 * math.log(10.0))

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
            assert lm_logprob(loaded, words) == pytest.approx(lm_logprob(lm, words), abs=1e-9)

    def test_bad_members_line_rejected(self, tmp_path):
        p = tmp_path / "bad.members"
        p.write_text("contactname\tada\t-1\n")
        with pytest.raises(InputFormatError):
            read_members(p)
