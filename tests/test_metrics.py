import math
import random

import pytest

from biaslattice.decode import Hypothesis, NBestList
from biaslattice.errors import InputFormatError
from biaslattice.metrics import (
    evaluate,
    format_report,
    normalize_words,
    oracle_wer,
    pool,
    read_refs,
    report_to_json,
    split_label,
    werr,
    wer,
)
from oracles import edit_distance


def mk_nbest(utt_id, ref, texts, lam=1.0):
    hyps = [
        Hypothesis(tokens=tuple(t.split()), text=t, rnnt_logp=-float(i),
                   sf_score=0.0, fused=-float(i))
        for i, t in enumerate(texts)
    ]
    return NBestList(utt_id=utt_id, ref=ref, lam=lam, hyps=hyps)


class TestWer:
    def test_identical(self):
        b = wer(["a", "b"], ["a", "b"])
        assert (b.substitutions, b.deletions, b.insertions) == (0, 0, 0)
        assert b.wer == 0.0

    def test_single_substitution(self):
        b = wer("call john smith".split(), "call jon smith".split())
        assert (b.substitutions, b.deletions, b.insertions) == (1, 0, 0)
        assert b.wer == pytest.approx(1 / 3)

    def test_empty_reference_insertion_only(self):
        b = wer([], ["a", "b"])
        assert (b.substitutions, b.deletions, b.insertions) == (0, 0, 2)
        assert b.wer == math.inf

    def test_empty_both(self):
        assert wer([], []).wer == 0.0

    def test_total_errors_match_reference_dp(self):
        rng = random.Random(4)
        for _ in range(300):
            ref = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
            hyp = [rng.choice("abcd") for _ in range(rng.randint(0, 8))]
            assert wer(ref, hyp).errors == edit_distance(ref, hyp)

    def test_swap_exchanges_deletions_and_insertions(self):
        rng = random.Random(6)
        for _ in range(100):
            ref = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
            hyp = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
            a = wer(ref, hyp)
            b = wer(hyp, ref)
            assert a.errors == b.errors
            assert (a.deletions, a.insertions) == (b.insertions, b.deletions)

    def test_tie_prefers_substitution(self):
        b = wer(["a"], ["b"])
        assert (b.substitutions, b.deletions, b.insertions) == (1, 0, 0)


class TestOracleWer:
    def test_reference_present(self):
        nb = mk_nbest("u1", "a b c", ["a x c", "a b c"])
        assert oracle_wer(nb).errors == 0

    def test_never_above_top_hypothesis(self):
        rng = random.Random(12)
        for _ in range(100):
            ref = " ".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
            texts = [
                " ".join(rng.choice("abcd") for _ in range(rng.randint(0, 6)))
                for _ in range(4)
            ]
            nb = mk_nbest("u", ref, texts)
            top = wer(normalize_words(ref), normalize_words(texts[0]))
            assert oracle_wer(nb).errors <= top.errors

    def test_single_hypothesis(self):
        nb = mk_nbest("u", "a b", ["a c"])
        assert oracle_wer(nb).errors == wer(["a", "b"], ["a", "c"]).errors

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            oracle_wer(NBestList("u", "a", 1.0, []))


class TestWerr:
    def test_no_change(self):
        assert werr(10.0, 10.0) == 0.0

    def test_improvement_is_negative(self):
        assert werr(10.0, 8.58) == pytest.approx(-14.2)

    def test_degradation_is_positive(self):
        assert werr(8.0, 10.0) == pytest.approx(25.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            werr(0.0, 1.0)


class TestNormalize:
    def test_lowercase_punctuation_whitespace(self):
        assert normalize_words("  Call  John-Smith, please! ") == [
            "call", "johnsmith", "please"
        ]

    def test_keeps_apostrophes(self):
        assert normalize_words("don't stop") == ["don't", "stop"]


class TestEvaluate:
    def test_corpus_pooling_not_averaging(self):
        lists = [
            mk_nbest("x-1", "a b c d e f g h i j", ["a b c d e f g h i j"]),
            mk_nbest("x-2", "q", ["z"]),
        ]
        report = evaluate(lists)
        # pooled: 1 error / 11 ref words, not mean(0, 1.0)
        assert report.split("all").breakdown.wer == pytest.approx(1 / 11)

    def test_self_comparison_gives_zero_werr(self):
        lists = [mk_nbest("contacts-1", "a b", ["a x"]), mk_nbest("general-1", "c", ["c"])]
        report = evaluate(lists, baseline=lists)
        assert report.split("contacts").werr == 0.0

    def test_split_labels(self):
        assert split_label("contacts-t0001") == "contacts"
        assert split_label("x") == "all"

    def test_ids_without_split_count_once(self):
        report = evaluate([mk_nbest("r1", "a b", ["a b"]), mk_nbest("r2", "c", ["x"])])
        assert [s.label for s in report.splits] == ["all"]
        assert report.split("all").utts == 2
        assert report.split("all").breakdown.ref_len == 3
        assert "all 2" in " ".join(format_report(report).split())

    def test_split_named_all_pools_with_the_rest(self):
        report = evaluate([mk_nbest("contacts-1", "a b", ["a x"]), mk_nbest("all-2", "c", ["c"])])
        assert report.split("contacts").utts == 1
        assert report.split("contacts").breakdown.errors == 1
        assert report.split("all").utts == 2
        assert report.split("all").breakdown.ref_len == 3
        assert report.split("all").breakdown.errors == 1

    def test_json_and_text_agree(self):
        lists = [mk_nbest("contacts-1", "a b", ["a b", "a x"]),
                 mk_nbest("general-1", "c d", ["c x", "c d"])]
        report = evaluate(lists, baseline=lists)
        payload = report_to_json(report)
        text = format_report(report)
        for row in payload["splits"]:
            sp = report.split(row["label"])
            assert row["wer"] == sp.breakdown.wer
            assert row["oracle_wer"] == sp.oracle.wer
            assert row["werr"] == sp.werr
            assert f"{100 * row['wer']:.2f}" in text

    def test_id_mismatch_rejected(self):
        with pytest.raises(InputFormatError, match="missing"):
            evaluate([mk_nbest("u-1", "a", ["a"])], refs={"other": "a"})

    def test_baseline_id_mismatch_rejected(self):
        with pytest.raises(InputFormatError, match="ids differ"):
            evaluate(
                [mk_nbest("u-1", "a", ["a"])],
                baseline=[mk_nbest("u-2", "a", ["a"])],
            )


class TestRefsFile:
    def test_round_trip(self, tmp_path):
        from biaslattice.metrics import write_refs

        refs = {"u-1": "call ada", "u-2": "play music"}
        path = tmp_path / "refs.tsv"
        write_refs(refs, path)
        assert read_refs(path) == refs

    def test_bad_line(self, tmp_path):
        p = tmp_path / "refs.tsv"
        p.write_text("missing-tab\n")
        with pytest.raises(InputFormatError):
            read_refs(p)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "refs.tsv"
        p.write_text("u\ta\nu\tb\n")
        with pytest.raises(InputFormatError, match="duplicate"):
            read_refs(p)

    def test_duplicate_id_after_stripping(self, tmp_path):
        p = tmp_path / "refs.tsv"
        p.write_text(" u\ta\nu \tb\n")
        with pytest.raises(InputFormatError, match="2: duplicate utterance id 'u'"):
            read_refs(p)


class TestPool:
    def test_pool_sums_counts(self):
        a = wer(["a", "b"], ["a", "x"])
        b = wer(["c"], ["c", "d"])
        p = pool([a, b])
        assert p.substitutions == 1 and p.insertions == 1
        assert p.ref_len == 3
        assert p.wer == pytest.approx(2 / 3)
