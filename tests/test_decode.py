import dataclasses
import math
import random
import re
import sys
from array import array
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaslattice import decode
from biaslattice.context import ContextualBiaser, build_class_fst
from biaslattice.decode import (
    END,
    NullBiaser,
    OracleError,
    SubwordBiaser,
    SynthOracle,
    WordBiaser,
    _check_normalized,
    beam_search,
    decode_corpus,
    fuse_step,
    read_nbest,
    write_nbest,
)
from biaslattice.fst import CatalogEntry, build_catalog_fst
from biaslattice.lookahead import PhraseWalk, WordWalk, open_session
from biaslattice.metrics import normalize_words, wer
from biaslattice.synthdata import CLASS_MIN_COUNT, make_task
from biaslattice.wordpiece import make_vocab
from oracles import reference_beam_search


@pytest.fixture(scope="module")
def mini_vocab():
    letters = set("abcdefghijklmnopqrstuvwxyz")
    syllables = {c + v for c in "bdklmnrst" for v in "aeiou"}
    return make_vocab(letters | syllables)


class TestFuseStep:
    def test_plain_combination(self):
        assert fuse_step(-2.0, -1.6, 1.0) == -3.6

    def test_zero_scale_disables_biasing(self):
        assert fuse_step(-1.25, 123.0, 0.0) == -1.25

    def test_fallback_increment_passes_through(self):
        assert fuse_step(-1.0, 3.2, 2.0) == pytest.approx(5.4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fuse_step(math.nan, 0.0, 1.0)

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            fuse_step(0.0, 0.0, -1.0)


class TestSynthOracle:
    def test_noise_free_decodes_reference(self, mini_vocab):
        oracle = SynthOracle(mini_vocab, {"u-1": "bado kela"}, noise=0.0)
        nbest = beam_search(oracle, None, mini_vocab, 0.0, 8, 4,
                            utt_id="u-1", ref="bado kela")
        assert nbest.hyps[0].text == "bado kela"
        assert wer(normalize_words("bado kela"),
                   normalize_words(nbest.hyps[0].text)).errors == 0

    def test_score_maps_are_bit_identical(self, mini_vocab):
        a = SynthOracle(mini_vocab, {"u": "bado"}, noise=0.4, seed=7)
        b = SynthOracle(mini_vocab, {"u": "bado"}, noise=0.4, seed=7)
        for pos in range(4):
            history = tuple(a.tokens["u"][:pos])
            assert a.score("u", history) == b.score("u", history)

    def test_seed_changes_scores(self, mini_vocab):
        a = SynthOracle(mini_vocab, {"u": "bado"}, noise=0.4, seed=7)
        b = SynthOracle(mini_vocab, {"u": "bado"}, noise=0.4, seed=8)
        diffs = any(
            a.score("u", tuple(a.tokens["u"][:p])) != b.score("u", tuple(b.tokens["u"][:p]))
            for p in range(3)
        )
        assert diffs

    def test_scores_normalize(self, mini_vocab):
        oracle = SynthOracle(mini_vocab, {"u": "bado kela"}, noise=0.5, seed=3)
        for pos in range(5):
            scores = oracle.score("u", tuple(oracle.tokens["u"][:pos]))
            lse = math.log(sum(math.exp(v) for v in scores.values()))
            assert abs(lse) < 1e-9

    def test_noisy_words_restriction(self, mini_vocab):
        oracle = SynthOracle(
            mini_vocab, {"u": "bado kela"}, noise=0.9, seed=1,
            noisy_words=frozenset({"kela"}),
        )
        # positions of "bado" pieces are clean singletons
        assert oracle.score("u", ()) == {oracle.tokens["u"][0]: 0.0}

    def test_single_transcript_shorthand(self, mini_vocab):
        oracle = SynthOracle(mini_vocab, "bado", noise=0.0)
        assert oracle.utterances() == [("utt-0", "bado")]

    def test_interleaved_queries_match_a_fresh_oracle(self, mini_vocab):
        refs = {"u-1": "bado kela", "u-2": "rosu bado"}
        oracle = SynthOracle(mini_vocab, refs, noise=0.6, seed=9)
        queries = [(u, pos) for u in refs for pos in range(oracle.max_steps(u))] * 2
        random.Random(3).shuffle(queries)
        for utt, pos in queries:
            fresh = SynthOracle(mini_vocab, refs, noise=0.6, seed=9)
            # twice in a row, so the second call can be served from a memo
            for history in (("ba",) * pos, tuple(oracle.tokens[utt][:pos])):
                assert oracle.score(utt, history) == fresh.score(utt, ("do",) * pos)

    def test_returned_map_belongs_to_the_caller(self, mini_vocab):
        oracle = SynthOracle(mini_vocab, {"u": "bado"}, noise=0.6, seed=9)
        for pos in range(3):
            history = ("ba",) * pos
            first = oracle.score("u", history)
            want = dict(first)
            first.clear()
            first["zz"] = 0.0
            assert oracle.score("u", history) == want


class TestBeamSearch:
    def test_validates_beam_and_nbest(self, mini_vocab):
        oracle = SynthOracle(mini_vocab, "bado", noise=0.0)
        with pytest.raises(ValueError):
            beam_search(oracle, None, mini_vocab, 0.0, beam_size=2, n_best=4)

    def test_oracle_normalization_enforced(self, mini_vocab):
        class Bad:
            def score(self, utt, history):
                return {"ba": -0.5, "do": -0.5}

        with pytest.raises(OracleError, match="log-sum-exp"):
            beam_search(Bad(), None, mini_vocab, 0.0, 8, 4, max_steps=4)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_oracle_score_names_utterance_and_token(self, mini_vocab, bad):
        # {"ba": 0, "do": -inf} is normalized and {"ba": 0, "do": nan} sums to
        # nan, so neither fails the log-sum-exp test; fuse_step would refuse
        # them with no utterance named.
        class Bad:
            def score(self, utt, history):
                return {"ba": 0.0, "do": bad}

        with pytest.raises(OracleError, match=r"^u-7: non-finite oracle score \S+ for token 'do'"):
            beam_search(Bad(), None, mini_vocab, 0.0, 8, 4, utt_id="u-7", max_steps=4)

    def test_separated_scores_and_fused_invariant(self, mini_vocab):
        catalog = build_catalog_fst([CatalogEntry(("bado",), 1.5)])
        oracle = SynthOracle(mini_vocab, {"u": "bado"}, noise=0.3, seed=2)
        biaser = SubwordBiaser(catalog)
        nbest = beam_search(oracle, biaser, mini_vocab, 0.8, 8, 8, utt_id="u", ref="bado")
        for hyp in nbest.hyps:
            assert hyp.fused == pytest.approx(hyp.rnnt_logp + 0.8 * hyp.sf_score, abs=1e-9)

    def test_catalog_word_gets_exact_path_weight(self, mini_vocab):
        catalog = build_catalog_fst([CatalogEntry(("bado",), -8.0)])
        oracle = SynthOracle(mini_vocab, {"u": "bado"}, noise=0.0)
        nbest = beam_search(oracle, SubwordBiaser(catalog), mini_vocab, 0.0, 8, 1,
                            utt_id="u", ref="bado")
        assert nbest.hyps[0].sf_score == pytest.approx(-8.0, abs=1e-12)

    def test_disabled_biasing_has_zero_sf(self, mini_vocab):
        oracle = SynthOracle(mini_vocab, {"u": "bado kela"}, noise=0.4, seed=5)
        nbest = beam_search(oracle, NullBiaser(), mini_vocab, 1.0, 8, 8,
                            utt_id="u", ref="bado kela")
        assert all(h.sf_score == 0.0 for h in nbest.hyps)

    def test_zero_scale_matches_no_biaser_ranking(self, mini_vocab):
        catalog = build_catalog_fst([CatalogEntry(("bado",), 1.7)])
        oracle = SynthOracle(mini_vocab, {"u": "bado kela"}, noise=0.4, seed=5)
        with_biaser = beam_search(oracle, SubwordBiaser(catalog), mini_vocab, 0.0,
                                  8, 8, utt_id="u", ref="bado kela")
        without = beam_search(oracle, None, mini_vocab, 0.0, 8, 8,
                              utt_id="u", ref="bado kela")
        assert [h.tokens for h in with_biaser.hyps] == [h.tokens for h in without.hyps]
        assert [h.rnnt_logp for h in with_biaser.hyps] == [
            h.rnnt_logp for h in without.hyps
        ]

    def test_determinism(self, mini_vocab):
        catalog = build_catalog_fst([CatalogEntry(("bado",), 1.7)])
        oracle = SynthOracle(mini_vocab, {"u": "bado kela"}, noise=0.4, seed=5)
        a = beam_search(oracle, SubwordBiaser(catalog), mini_vocab, 1.0, 8, 8,
                        utt_id="u", ref="bado kela")
        b = beam_search(oracle, SubwordBiaser(catalog), mini_vocab, 1.0, 8, 8,
                        utt_id="u", ref="bado kela")
        assert a.hyps == b.hyps

    def test_oracle_nbest_wer_never_above_top(self, mini_vocab):
        from biaslattice.metrics import oracle_wer

        oracle = SynthOracle(mini_vocab, {"u": "bado kela rosu"}, noise=0.5, seed=9)
        nbest = beam_search(oracle, None, mini_vocab, 0.0, 8, 8,
                            utt_id="u", ref="bado kela rosu")
        ref = normalize_words(nbest.ref)
        top = wer(ref, normalize_words(nbest.hyps[0].text))
        assert oracle_wer(nbest).errors <= top.errors

    def test_boost_rescues_confused_name(self, mini_vocab):
        # Seed chosen so the noisy oracle swaps the name at lam=0.
        name = "bado"
        catalog = build_catalog_fst([CatalogEntry((name,), 1.8)])
        refs = {f"u-{i}": name for i in range(20)}
        oracle = SynthOracle(mini_vocab, refs, noise=0.5, seed=11)
        plain = decode_corpus(oracle, None, mini_vocab, 0.0, 8, 8)
        boosted = decode_corpus(oracle, SubwordBiaser(catalog), mini_vocab, 1.5, 8, 8)
        plain_errs = sum(
            wer(normalize_words(nb.ref), normalize_words(nb.hyps[0].text)).errors
            for nb in plain
        )
        boosted_errs = sum(
            wer(normalize_words(nb.ref), normalize_words(nb.hyps[0].text)).errors
            for nb in boosted
        )
        assert plain_errs > 0
        assert boosted_errs < plain_errs

    def test_more_boost_puts_more_references_in_nbest(self, mini_vocab):
        # 10 contacts with lookalike names, noisy emissions.
        names = ["balo", "baro", "keli", "kelo", "ruda", "rudo", "masi",
                 "masa", "tilu", "tila"]
        catalog = build_catalog_fst([CatalogEntry((n,), 1.8) for n in names])
        refs = {f"u-{i:02d}": names[i % len(names)] for i in range(30)}
        oracle = SynthOracle(mini_vocab, refs, noise=0.5, seed=4)

        def hits(lam):
            biaser = SubwordBiaser(catalog) if lam else None
            lists = decode_corpus(oracle, biaser, mini_vocab, lam, 8, 8)
            return sum(
                any(h.text == nb.ref for h in nb.hyps) for nb in lists
            )

        assert hits(1.0) > hits(0.0)


class TestScoreConservation:
    def test_hypothesis_sf_equals_sum_of_catalog_word_weights(self, mini_vocab):
        # Single-word catalog: every decoded hypothesis must carry exactly
        # the summed weights of its catalog words, no matter how the beam
        # wandered into them.
        import random as rnd

        rng = rnd.Random(23)
        names = ["balo", "baro", "keli", "kelo", "ruda", "masi"]
        weights = {n: rng.choice([0.5, 1.0, 1.8, 2.5]) for n in names}
        catalog = build_catalog_fst(
            [CatalogEntry((n,), w) for n, w in sorted(weights.items())]
        )
        refs = {
            f"u-{i:02d}": " ".join(rng.choice(names + ["damo", "niru"]) for _ in range(3))
            for i in range(12)
        }
        oracle = SynthOracle(mini_vocab, refs, noise=0.5, seed=3)
        for nb in decode_corpus(oracle, SubwordBiaser(catalog), mini_vocab, 1.0, 8, 8):
            for hyp in nb.hyps:
                want = sum(weights.get(w, 0.0) for w in hyp.text.split())
                assert hyp.sf_score == pytest.approx(want, abs=1e-9), hyp.text

    def test_contextual_sf_counts_only_licensed_positions(self, mini_vocab):
        # Templates license a name only right after its carrier word, so the
        # expected biasing score is checkable from the hypothesis text alone.
        from biaslattice.context import ContextualBiaser, build_class_fst

        import random as rnd

        rng = rnd.Random(29)
        names = ["balo", "keli", "ruda"]
        weight = 2.0
        contacts = build_catalog_fst([CatalogEntry((n,), weight) for n in names])
        class_fst = build_class_fst(
            ["beam @contactname(balo)"] * 10, min_count=10
        )
        biaser = ContextualBiaser(class_fst, {"@contactname": contacts})
        pool = names + ["beam", "damo", "niru"]
        refs = {
            f"u-{i:02d}": " ".join(rng.choice(pool) for _ in range(4))
            for i in range(15)
        }
        oracle = SynthOracle(mini_vocab, refs, noise=0.4, seed=5)
        for nb in decode_corpus(oracle, biaser, mini_vocab, 1.0, 8, 8):
            for hyp in nb.hyps:
                words = hyp.text.split()
                want = sum(
                    weight
                    for prev, cur in zip([None] + words, words)
                    if prev == "beam" and cur in names
                )
                assert hyp.sf_score == pytest.approx(want, abs=1e-9), hyp.text


class TestWordLevelBiaser:
    def test_increment_only_at_boundary(self, mini_vocab):
        catalog = build_catalog_fst([CatalogEntry(("bado",), 2.0)])
        session = WordBiaser(catalog).open_session()
        assert session.expand("ba") == 0.0
        assert session.expand("do") == 0.0
        assert session.finish_word("") == 2.0

    def test_miss_is_free_and_resets(self, mini_vocab):
        catalog = build_catalog_fst([CatalogEntry(("bado", "kela"), 2.0)])
        session = WordBiaser(catalog).open_session()
        session.expand("ba")
        session.expand("do")
        assert session.finish_word("") == 2.0
        session.expand("xx")
        assert session.finish_word("") == -2.0  # unfinished phrase paid back

    def test_finalize_mid_phrase_pays_back(self):
        catalog = build_catalog_fst([CatalogEntry(("bado", "kela"), 2.0)])
        session = WordBiaser(catalog).open_session()
        session.expand("ba")
        session.expand("do")
        total = session.finish_word("")
        total += session.finalize()
        assert total == 0.0


def _call_kate_context(fst):
    """Contextual biasing over the one template "call @contactname"."""
    return ContextualBiaser(build_class_fst(["call @contactname(kate)"], min_count=1),
                            {"@contactname": fst})


class _Script:
    """An oracle offering one fixed map per step, then only END."""

    def __init__(self, *maps):
        self.maps = maps

    def score(self, utt_id, history):
        step = len(history)
        return dict(self.maps[step]) if step < len(self.maps) else {END: 0.0}


_KINDS = [None, WordBiaser, SubwordBiaser,
          pytest.param(_call_kate_context, id="ContextualBiaser")]


class TestDecodeSplitsEachToken:
    """Beam search splits each token once, with ``wordpiece.word_end``, and
    the biasers read only word content.  A malformed token is the oracle's
    fault under every biaser kind, wherever the hypothesis is, so ``te_`` is
    never folded into a word."""

    @pytest.mark.parametrize("biaser_cls", _KINDS)
    @pytest.mark.parametrize("before", [
        pytest.param((), id="start"),
        pytest.param(("ka",), id="mid-word"),
        pytest.param(("call_", "ka"), id="inside-a-race"),
        pytest.param(("call_", "zz"), id="dead-word"),
    ])
    @pytest.mark.parametrize("token", ["", "a__"])
    def test_malformed_token_is_an_oracle_error(self, mini_vocab, biaser_cls, before, token):
        biaser = biaser_cls and biaser_cls(build_catalog_fst([CatalogEntry(("kate",), 1.0)]))
        maps = [{t: 0.0} for t in before] + [{"te_": math.log(0.5), token: math.log(0.5)}]
        with pytest.raises(OracleError, match=f"^u7: oracle token {re.escape(repr(token))}: "):
            beam_search(_Script(*maps), biaser, mini_vocab, 1.0, 4, 2, utt_id="u7")

    @pytest.mark.parametrize("biaser_cls", _KINDS)
    @pytest.mark.parametrize("weight", [1.0, -2.5])
    def test_fused_and_split_word_ends_score_alike(self, mini_vocab, biaser_cls, weight):
        biaser = biaser_cls and biaser_cls(build_catalog_fst([CatalogEntry(("kate",), weight)]))

        def best(*tokens):
            (hyp,) = beam_search(_Script(*({t: 0.0} for t in tokens)), biaser, mini_vocab,
                                 1.0, 4, 1).hyps
            return hyp

        fused, split = best("call_", "ka", "te_", "zz_"), best("call_", "ka", "te", "_", "zz_")
        assert fused.text == split.text == "call kate zz"
        assert fused.sf_score == split.sf_score == (biaser and weight or 0.0)

    @pytest.mark.parametrize("biaser_cls", _KINDS)
    def test_another_delimiter_decodes_alike(self, mini_vocab, biaser_cls):
        biaser = biaser_cls and biaser_cls(build_catalog_fst(
            [CatalogEntry(("kate",), 2.0), CatalogEntry(("bado", "kela"), 1.5)]))
        refs = {"u1": "call kate", "u2": "call bado kela", "u3": "kate bado"}

        def run(vocab):
            oracle = SynthOracle(vocab, refs, noise=0.1, seed=5)
            return decode_corpus(oracle, biaser, vocab, 2.0, beam_size=6, n_best=4)

        bar = run(make_vocab(mini_vocab.pieces, "|"))
        underscore = run(mini_vocab)
        assert [[(tuple(t.replace("|", "_") for t in h.tokens), h.text, h.sf_score, h.fused)
                 for h in nb.hyps] for nb in bar] == \
            [[(h.tokens, h.text, h.sf_score, h.fused) for h in nb.hyps] for nb in underscore]
        assert any(h.sf_score for nb in underscore for h in nb.hyps) == (biaser is not None)


class TestTwoTagRace:
    def test_end_of_stream_keeps_the_banked_phrase(self, mini_vocab):
        # The start state offers @a and @b.  After "a_", @a has banked "a"
        # (+1) with "a a" open, and @b is mid-way through "a a".  End of
        # stream fails both walks: @a's banked +1 stands, and @b, which
        # banked nothing, pays back and does not compete.
        biaser = ContextualBiaser(
            build_class_fst(["@a(x)", "@b(x)"], min_count=1),
            {"@a": build_catalog_fst([CatalogEntry(("a",), 1.0), CatalogEntry(("a", "a"), 1.0)]),
             "@b": build_catalog_fst([CatalogEntry(("a", "a"), 0.0)])})
        (hyp,) = beam_search(_Script({"a_": 0.0}), biaser, mini_vocab, 1.0, 1, 1).hyps
        assert hyp.tokens == ("a_",)
        assert hyp.sf_score == 1.0


class TestNoBiaserKnowsTheDelimiter:
    @pytest.mark.parametrize("make", [
        PhraseWalk, WordWalk, SubwordBiaser, WordBiaser,
        pytest.param(lambda fst, **kw: ContextualBiaser(
            build_class_fst(["@x(w)"], min_count=1), {"@x": fst}, **kw), id="ContextualBiaser"),
        pytest.param(lambda fst, **kw: open_session(fst, fst.start, **kw), id="open_session"),
    ])
    def test_delimiter_keyword_refused(self, make):
        fst = build_catalog_fst([CatalogEntry(("kate",), 1.0)])
        with pytest.raises(TypeError):
            make(fst, delimiter="|")
        assert not hasattr(make(fst), "delimiter")


_words = st.text(alphabet="abc", min_size=1, max_size=4)


@st.composite
def _catalogs(draw, weights=st.floats(-5.0, 5.0)):
    """Mixed-sign one- and two-word catalogs; a phrase weighs what its first word does,
    so phrases sharing a prefix agree on its arc weight."""
    firsts = draw(st.dictionaries(_words, weights, min_size=1, max_size=8))
    seconds = draw(st.sets(st.tuples(st.sampled_from(sorted(firsts)), _words), max_size=4))
    return [CatalogEntry((w,), x) for w, x in firsts.items()] + [
        CatalogEntry(p, firsts[p[0]]) for p in sorted(seconds)
    ]


@st.composite
def _streams(draw, catalog):
    """Token streams mostly over catalog words, cut into random pieces, each word
    closed by a bare or fused delimiter, with stray delimiters (empty words)."""
    words = st.one_of(st.sampled_from(sorted({w for e in catalog for w in e.phrase})), _words)
    tokens = []
    for _ in range(draw(st.integers(0, 6))):
        word = draw(words)
        cuts = sorted(draw(st.sets(st.integers(1, len(word) - 1)))) if len(word) > 1 else []
        pieces = [word[i:j] for i, j in zip([0] + cuts, cuts + [len(word)])]
        if draw(st.booleans()):
            pieces[-1] += "_"
        else:
            pieces.append("_")
        if draw(st.integers(0, 4)) == 0:
            pieces.append("_")
        tokens += pieces
    return tokens


def _feed(session, tokens, *, final=True):
    """Increments for ``tokens`` (delimiter tokens close words), then finalize."""
    out = [session.finish_word(t[:-1]) if t.endswith("_") else session.expand(t) for t in tokens]
    if final:
        out.append(session.finalize())
    return out


def _twice(step, *args):
    """``step(*args)``, checked to return the same result, states and all,
    when called again, and a state that hashes."""
    first, again = step(*args), step(*args)
    assert again == first and hash(again[-1]) == hash(first[-1])
    return first


def _transitions(biaser, tokens):
    """Increments from the biaser's own transitions, then finalize's, each
    transition applied twice to the same state."""
    state, out = biaser.initial(), []
    for token in tokens:
        if token.endswith("_"):
            increment, *_, state = _twice(biaser.finish_word, state, token[:-1])
        else:
            increment, *_, state = _twice(biaser.expand, state, token)
        out.append(increment)
    out.append(_twice(biaser.finalize, state)[0])
    return out


def _tag_only_context(fst):
    """Contextual biasing whose one template is a single tag bound to ``fst``."""
    return ContextualBiaser(build_class_fst(["@x(w)"], min_count=1), {"@x": fst})


class TestCloneIndependence:
    """Beam search clones a session per candidate; clones must never interact,
    and the transitions under every session are pure."""

    @pytest.mark.parametrize("biaser_cls", [
        WordBiaser, SubwordBiaser, pytest.param(_tag_only_context, id="ContextualBiaser"),
    ])
    @given(catalog=_catalogs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mid_stream_clone(self, biaser_cls, catalog, data):
        biaser = biaser_cls(build_catalog_fst(catalog))
        stream, detour = data.draw(_streams(catalog)), data.draw(_streams(catalog))
        want = _feed(biaser.open_session(), stream)
        assert _transitions(biaser, stream) == want
        cut = data.draw(st.integers(0, len(stream)))
        session = biaser.open_session()
        assert _feed(session, stream[:cut], final=False) == want[:cut]
        detoured, twin = session.clone(), session.clone()
        _feed(detoured, detour)
        # the clone scores the remaining tokens exactly as the original ...
        assert _feed(twin, stream[cut:]) == want[cut:]
        # ... and feeding clones leaves the original's increments unchanged
        assert _feed(session, stream[cut:]) == want[cut:]


@st.composite
def _phrases_and_stream(draw):
    """A mixed-sign catalog of 1-3-word phrases and a token stream over it.

    A phrase weighs what its first word does, so phrases sharing a prefix
    agree on its arc weights.  The stream strings whole phrases and stray
    words together, cuts each word into random pieces closed by a bare or
    fused delimiter, and drops in empty words (a delimiter after another)."""
    firsts = draw(st.dictionaries(_words, st.floats(-5.0, 5.0), min_size=1, max_size=6))
    phrases = draw(st.sets(
        st.tuples(st.sampled_from(sorted(firsts)), st.lists(_words, max_size=2)).map(
            lambda fw: (fw[0], *fw[1])),
        min_size=1, max_size=8))
    catalog = [CatalogEntry(p, firsts[p[0]]) for p in sorted(phrases)]
    units = st.one_of(st.sampled_from(sorted(phrases)), _words.map(lambda w: (w,)))
    tokens = draw(st.lists(st.just("_"), max_size=1))
    for words in draw(st.lists(units, max_size=5)):
        for word in words:
            cuts = sorted(draw(st.sets(st.integers(1, len(word) - 1)))) if len(word) > 1 else []
            pieces = [word[i:j] for i, j in zip([0] + cuts, cuts + [len(word)])]
            if draw(st.booleans()):
                pieces[-1] += "_"
            else:
                pieces.append("_")
            tokens += pieces + draw(st.lists(st.just("_"), max_size=2))
    return catalog, tokens


class TestOnePhraseRule:
    """Word-level and subword biasing differ only in when a word's weight is
    paid, never in how a phrase is walked."""

    @given(case=_phrases_and_stream())
    @example(case=([CatalogEntry(("mora", "tivu"), 1.8)],
                   ["mo", "ra", "_", "_", "ti", "vu", "_"]))
    @settings(max_examples=300, deadline=None)
    def test_word_and_subword_net_the_same(self, case):
        catalog, tokens = case
        fst = build_catalog_fst(catalog)
        word = sum(_feed(WordBiaser(fst).open_session(), tokens))
        subword = sum(_feed(SubwordBiaser(fst).open_session(), tokens))
        assert word == pytest.approx(subword, abs=1e-9)


class _Fixed:
    """An oracle offering the same map at every step."""

    def __init__(self, scores):
        self.scores = scores

    def score(self, utt_id, history):
        return dict(self.scores)


class TestBeamSearchEdges:
    @pytest.mark.parametrize("token", ["do", END])
    @pytest.mark.parametrize("beam", [1, 8])
    def test_non_finite_candidate_raises(self, mini_vocab, token, beam):
        # at beam 1 the -inf candidate is pruned, or sorts below the 1-best,
        # so only a check on every candidate catches it
        oracle = _Fixed({"ba": 0.0, token: -math.inf})
        with pytest.raises(ValueError, match="non-finite"):
            beam_search(oracle, None, mini_vocab, 1.0, beam, 1, max_steps=3)

    @pytest.mark.parametrize("lam", [-1.0, math.nan])
    @pytest.mark.parametrize("scores", [{"ba": 0.0}, {END: 0.0}])
    def test_invalid_scale_raises(self, mini_vocab, lam, scores):
        for max_steps in (0, 3):  # at 0, no candidate is ever scored
            with pytest.raises(ValueError):
                beam_search(_Fixed(scores), None, mini_vocab, lam, 8, 4, max_steps=max_steps)

    @pytest.mark.parametrize("biaser_cls", [WordBiaser, SubwordBiaser])
    def test_finite_parts_may_overflow_the_fused_score(self, mini_vocab, biaser_cls):
        # -1e308 is a valid weight, but 2 * -1e308 overflows: the hypothesis
        # keeps its finite parts and the overflowed fused score.  The subword
        # lookahead's pushes along the way stay finite too.
        biaser = biaser_cls(build_catalog_fst([CatalogEntry(("bado",), -1e308)]))
        oracle = SynthOracle(mini_vocab, "bado")
        nbest = beam_search(oracle, biaser, mini_vocab, 2.0, 8, 1,
                            max_steps=oracle.max_steps("utt-0"))
        (hyp,) = nbest.hyps
        assert hyp.text == "bado"
        assert hyp.sf_score == -1e308
        assert hyp.fused == -math.inf

    @pytest.mark.parametrize("max_steps", [0, 1, 3])
    def test_step_cap_settles_a_single_candidate(self, mini_vocab, max_steps):
        biaser = SubwordBiaser(build_catalog_fst([CatalogEntry(("babababa",), 1.5)]))
        nbest = beam_search(_Fixed({"ba": 0.0}), biaser, mini_vocab, 2.0, 8, 4,
                            max_steps=max_steps)
        (hyp,) = nbest.hyps
        assert hyp.tokens == ("ba",) * max_steps
        assert hyp.fused == hyp.rnnt_logp + 2.0 * hyp.sf_score


_PIECES = ("a", "b", "c", "ab", "ca", "_", "a_", "bc_", END)


class _LastTokenOracle:
    """Scores depend on the last token of the history, so hypotheses at one step
    get different maps; END is forced once the history reaches ``length``."""

    def __init__(self, table, length):
        self.table = table
        self.length = length

    def score(self, utt_id, history):
        if len(history) >= self.length:
            return {END: 0.0}
        return dict(self.table[history[-1] if history else None])


@st.composite
def _last_token_oracles(draw):
    # small integer weights, so equal log-probs (and fused-score ties) are common
    table = {}
    for last in (None,) + _PIECES[:-1]:
        weights = draw(st.dictionaries(st.sampled_from(_PIECES), st.integers(1, 3),
                                       min_size=1, max_size=5))
        total = sum(weights.values())
        table[last] = {t: math.log(w / total) for t, w in weights.items()}
    return _LastTokenOracle(table, draw(st.integers(0, 6)))


def _bits(nbest):
    return [(h.tokens, h.text, h.rnnt_logp.hex(), h.sf_score.hex(), h.fused.hex())
            for h in nbest.hyps]


class TestReferenceEquivalence:
    """Beam search returns exactly what the one-clone-per-candidate loop returns."""

    def test_cross_parent_tie_breaks_by_tokens(self, mini_vocab):
        # ("a", "c") and ("b", "c") tie at low - 0.25 for the second beam
        # slot.  Parent "b" scores higher, so a beam kept in score order
        # extends it first, and a selection that is stable only over that
        # order keeps ("b", "c"); the tie must go to the smaller sequence.
        low = math.log(1 - math.exp(-0.25))
        oracle = _LastTokenOracle({
            None: {"b": -0.25, "a": low},
            "b": {"c": low, "d": -0.25},
            "a": {"c": -0.25, "d": low},
        }, 2)
        args = (oracle, None, mini_vocab, 0.0, 2, 2)
        got = beam_search(*args)
        assert [h.tokens for h in got.hyps] == [("b", "d"), ("a", "c")]
        assert got.hyps[1].fused == low - 0.25
        assert got == reference_beam_search(*args)

    @pytest.mark.parametrize("biaser_cls", [
        None, WordBiaser, SubwordBiaser, pytest.param(_tag_only_context, id="ContextualBiaser"),
    ])
    @given(oracle=_last_token_oracles(), catalog=_catalogs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, mini_vocab, biaser_cls, oracle, catalog, data):
        biaser = biaser_cls and biaser_cls(build_catalog_fst(catalog))
        lam = data.draw(st.one_of(st.just(0.0), st.floats(0.1, 5.0)))
        n_best = data.draw(st.integers(1, 4))
        beam = n_best + data.draw(st.integers(0, 4))
        max_steps = data.draw(st.integers(0, oracle.length + 2))
        args = (oracle, biaser, mini_vocab, lam, beam, n_best)
        kwargs = dict(utt_id="u", ref="r", max_steps=max_steps)
        want = reference_beam_search(*args, **kwargs)
        got = beam_search(*args, **kwargs)
        assert _bits(got) == _bits(want)
        assert got == want


def _signed_twin(fst):
    """``fst`` with every zero weight stored as -0.0, as a file from an earlier
    version may hold it."""
    return dataclasses.replace(fst, weights=array("d", [w or -0.0 for w in fst.weights]))


class TestZeroSign:
    """No score tells 0.0 from -0.0, so the builder may store every zero
    weight unsigned: an automaton and its twin whose zero arcs are -0.0
    decode to the same n-best file, byte for byte."""

    @pytest.mark.parametrize("biaser_cls", [
        WordBiaser, SubwordBiaser, pytest.param(_tag_only_context, id="ContextualBiaser"),
    ])
    @given(oracle=_last_token_oracles(),
           catalog=_catalogs(st.sampled_from([0.0, -1.5, 2.0]) | st.floats(-5.0, 5.0)),
           lam=st.sampled_from([1.0, 2.5]))
    @settings(max_examples=100, deadline=None)
    def test_signed_zero_arcs_decode_alike(self, mini_vocab, tmp_path_factory, biaser_cls,
                                           oracle, catalog, lam):
        fst = build_catalog_fst(catalog)
        path = tmp_path_factory.getbasetemp() / "zero-sign.nbest"
        files = []
        for automaton in (fst, _signed_twin(fst)):
            nbest = beam_search(oracle, biaser_cls(automaton), mini_vocab, lam, 6, 4,
                                utt_id="u", ref="r", max_steps=oracle.length + 1)
            write_nbest([nbest], path)
            files.append(path.read_bytes())
        assert files[0] == files[1]


@pytest.fixture(scope="module")
def small_task():
    """A small synthetic task, its noisy oracle and a biaser factory per kind."""
    task = make_task(3, n_contacts=40, n_devices=5, n_apps=5, n_test=10, n_dev=1)
    oracle = SynthOracle(task.vocab, task.refs_test, noise=0.5, seed=3,
                          noisy_words=task.noisy_words)
    all_fst = build_catalog_fst(task.all_bias_entries())
    class_fst = build_class_fst(task.class_corpus, min_count=CLASS_MIN_COUNT)
    bindings = {
        "@contactname": build_catalog_fst(task.contacts),
        "@devicename": build_catalog_fst(task.devices),
        "@appname": build_catalog_fst(task.apps),
    }
    factories = {
        "subword": lambda: SubwordBiaser(all_fst),
        "context": lambda: ContextualBiaser(class_fst, bindings),
    }
    return task, oracle, factories


class TestSharedCache:
    """A biaser's lookahead cache is shared by every utterance it decodes and
    never changes a score."""

    @pytest.mark.parametrize("kind", ["subword", "context"])
    def test_warm_decode_equals_cold(self, small_task, kind):
        task, oracle, factories = small_task
        shared = factories[kind]()
        cold = decode_corpus(oracle, shared, task.vocab, 2.5, 8, 4)
        warm = decode_corpus(oracle, shared, task.vocab, 2.5, 8, 4)
        assert [_bits(nb) for nb in warm] == [_bits(nb) for nb in cold]

    def test_two_threads_share_one_biaser(self, small_task):
        task, oracle, factories = small_task
        utts = sorted(oracle.utterances())
        want = decode_corpus(oracle, factories["subword"](), task.vocab, 2.5, 8, 4)
        shared = factories["subword"]()

        def decode_half(half):
            return [beam_search(oracle, shared, task.vocab, 2.5, 8, 4,
                                utt_id=utt, ref=ref, max_steps=oracle.max_steps(utt))
                    for utt, ref in half]

        # Switch threads often, so both fill the cold cache at the same time.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(decode_half, (utts[::2], utts[1::2]), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got[0] == want[::2]
        assert got[1] == want[1::2]
        assert shared.cache


class _OneObjectOracle:
    """Returns one dict object for every call; at the ``mutate_at``-th call it
    first rewrites that dict in place to ``into``."""

    def __init__(self, mutate_at, into):
        self.scores = {"ba": math.log(0.5), "do": math.log(0.5)}
        self.mutate_at = mutate_at
        self.into = into
        self.calls = 0

    def score(self, utt_id, history):
        self.calls += 1
        if self.calls == self.mutate_at:
            self.scores.clear()
            self.scores.update(self.into)
        return self.scores


class TestMapCheckByValue:
    """Beam search checks each distinct map once, comparing maps by value."""

    def test_in_place_mutation_is_still_checked(self, mini_vocab):
        # Call 1 scores the root; calls 2 and 3 score the two live
        # hypotheses of step 1, and the dict turns unnormalized between them.
        oracle = _OneObjectOracle(3, {"ba": -0.5, "do": -0.5})
        with pytest.raises(OracleError, match="log-sum-exp"):
            beam_search(oracle, None, mini_vocab, 0.0, 8, 4, max_steps=4)
        assert oracle.calls == 3

    def test_in_place_mutation_is_scored_by_its_new_values(self, mini_vocab):
        into = {"ba": math.log(0.25), "do": math.log(0.75)}
        args = (mini_vocab, 0.0, 8, 4)
        got = beam_search(_OneObjectOracle(3, into), None, *args, max_steps=3)
        want = reference_beam_search(_OneObjectOracle(3, into), None, *args, max_steps=3)
        assert _bits(got) == _bits(want)


class _CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.calls = self.candidates = 0
        self.lengths = set()

    def score(self, utt_id, history):
        scores = self.inner.score(utt_id, history)
        self.calls += 1
        self.candidates += len(scores)
        self.lengths.add(len(history))
        return scores


class _CountingSession:
    def __init__(self, inner, clones):
        self.inner = inner
        self.clones = clones

    def clone(self):
        self.clones.append(1)
        return _CountingSession(self.inner.clone(), self.clones)

    def expand(self, content):
        return self.inner.expand(content)

    def finish_word(self, content):
        return self.inner.finish_word(content)

    def finalize(self):
        return self.inner.finalize()


class _CountingBiaser:
    def __init__(self, inner):
        self.inner = inner
        self.clones = []

    def open_session(self):
        return _CountingSession(self.inner.open_session(), self.clones)


class TestDecodeContract:
    """Every biaser kind decodes exactly as the reference loop does, with one
    oracle call per live hypothesis, one clone per candidate, no call to
    fuse_step while every fused score is finite, and at most one
    normalization check per step for SynthOracle."""

    @pytest.mark.parametrize("kind", ["none", "word", "subword", "context"])
    def test_matches_reference_with_the_same_calls(self, small_task, kind, monkeypatch):
        task, synth, factories = small_task
        factories = {
            "none": NullBiaser,
            "word": lambda: WordBiaser(build_catalog_fst(task.all_bias_entries())),
            **factories,
        }
        checks, fallbacks = [], []

        def check(scores, utt_id):
            checks.append(utt_id)
            return _check_normalized(scores, utt_id)

        def fuse(*args):
            fallbacks.append(args)
            return fuse_step(*args)

        for utt, ref in sorted(synth.utterances()):
            runs = {}
            for search in (reference_beam_search, beam_search):
                oracle = _CountingOracle(synth)
                biaser = _CountingBiaser(factories[kind]())
                checks.clear()
                fallbacks.clear()
                with monkeypatch.context() as patch:
                    if search is beam_search:
                        patch.setattr(decode, "_check_normalized", check)
                        patch.setattr(decode, "fuse_step", fuse)
                    nbest = search(oracle, biaser, task.vocab, 2.5, 8, 4, utt_id=utt,
                                   ref=ref, max_steps=synth.max_steps(utt))
                runs[search] = (nbest, oracle.calls, oracle.candidates, len(biaser.clones))
            want, got = runs[reference_beam_search], runs[beam_search]
            assert _bits(got[0]) == _bits(want[0])
            assert got[0] == want[0]
            assert got[1:] == want[1:]
            # beam_search ran last, so these counters are its own
            assert len(biaser.clones) == oracle.candidates
            assert fallbacks == []
            assert len(checks) <= len(oracle.lengths)


class TestNBestIO:
    def test_round_trip_exact(self, mini_vocab, tmp_path):
        catalog = build_catalog_fst([CatalogEntry(("bado",), 1.8)])
        oracle = SynthOracle(mini_vocab, {"u-1": "bado kela", "u-2": "rosu"},
                              noise=0.4, seed=6)
        lists = decode_corpus(oracle, SubwordBiaser(catalog), mini_vocab, 1.5, 8, 8)
        path = tmp_path / "nbest.jsonl"
        write_nbest(lists, path)
        loaded = read_nbest(path)
        assert loaded == lists

    @pytest.mark.parametrize("kind", ["subword", "context"])
    @given(lam=st.floats(0.0, 10.0))
    @example(lam=0.0)
    @example(lam=1e-3)
    @example(lam=2.5)
    @settings(max_examples=25, deadline=None)
    def test_decoded_lists_round_trip(self, small_task, tmp_path_factory, kind, lam):
        task, oracle, factories = small_task
        lists = decode_corpus(oracle, factories[kind](), task.vocab, lam, 8, 4)
        path = tmp_path_factory.mktemp("nbest") / "nbest.jsonl"
        write_nbest(lists, path)
        loaded = read_nbest(path)
        assert [_bits(nb) for nb in loaded] == [_bits(nb) for nb in lists]
        assert loaded == lists

    def test_bad_record_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "u", "ref": "a"}\n')
        with pytest.raises(Exception, match=":1:"):
            read_nbest(p)
