import random
from bisect import bisect_left

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biaslattice.fst import BAND_BLOCK, CatalogEntry, build_catalog_fst
from biaslattice.lookahead import (
    PhraseWalk,
    ProbeCounter,
    WordOutcome,
    open_session,
    prefix_range,
    pushed_weight,
)
from conftest import random_catalog, walk_word
from oracles import (
    all_chunkings,
    band_scan,
    linear_prefix_filter,
    pushed_profile,
    reference_build_catalog_fst,
)


class TestPrefixRange:
    def test_worked_example_prefix(self, play_fst):
        assert play_fst.offsets[play_fst.start : play_fst.start + 2].tolist() == [0, 3]
        assert prefix_range(play_fst.arc_words, 0, 3, "pl") == (0, 3)

    def test_empty_prefix_keeps_range(self, play_fst):
        assert prefix_range(play_fst.arc_words, 0, 3, "") == (0, 3)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            prefix_range(["a"], 1, 0, "a")

    @given(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=6), min_size=0,
                 max_size=30, unique=True),
        st.text(alphabet="abcd", min_size=0, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_scan(self, words, prefix):
        words = sorted(words)
        got = prefix_range(words, 0, len(words), prefix)
        want = linear_prefix_filter(words, 0, len(words), prefix)
        if got != want:
            # Placement of an empty range is arbitrary; both must be empty.
            assert got[0] == got[1] and want[0] == want[1]
        else:
            assert got == want

    def test_subrange_narrowing(self):
        words = ["aa", "ab", "abc", "abd", "ac", "b"]
        lo, hi = prefix_range(words, 0, len(words), "a")
        assert (lo, hi) == (0, 5)
        assert prefix_range(words, lo, hi, "ab") == (1, 4)

    def test_probe_counter_counts(self):
        words = [f"w{i:04d}" for i in range(1000)]
        counter = ProbeCounter()
        prefix_range(words, 0, len(words), "w0500", counter=counter)
        assert 0 < counter.probes <= 2 * 11


class TestPushedWeight:
    def test_worked_example_value(self):
        assert pushed_weight(2, 10, -8.0) == -1.6

    def test_full_length_prefix(self):
        for w in (-8.0, -0.25, 0.0):
            assert pushed_weight(10, 10, w) == w

    def test_intermediate_value(self):
        assert pushed_weight(4, 10, -8.0) == -3.2

    def test_errors(self):
        with pytest.raises(ValueError):
            pushed_weight(11, 10, -8.0)
        with pytest.raises(ValueError):
            pushed_weight(1, 0, -8.0)


def _band(fst, state):
    """A walk state's band, counted from the first arc of its word's state."""
    q, _, lo, hi = state[:4]
    return lo - fst.offsets[q], hi - fst.offsets[q]


class TestWordTransitions:
    """One word through :class:`PhraseWalk`'s ``expand`` and ``close_word``."""

    def test_open_full_range(self, play_fst):
        state = PhraseWalk(play_fst).initial(play_fst.start)
        assert _band(play_fst, state) == (0, 3)
        assert state[4] == 0.0

    def test_open_invalid_state(self, play_fst):
        with pytest.raises(IndexError):
            open_session(play_fst, 99)

    @pytest.mark.parametrize("past_end", [False, True])
    def test_both_facades_reject_a_state_outside_the_automaton(self, play_fst, past_end):
        # -1 would otherwise index the last state's columns from the end.
        q = play_fst.num_states if past_end else -1
        with pytest.raises(IndexError, match=f"state {q} out of range"):
            open_session(play_fst, q)
        with pytest.raises(IndexError, match=f"state {q} out of range"):
            PhraseWalk(play_fst).initial(q)

    def test_open_single_arc_state(self):
        f = build_catalog_fst([CatalogEntry(("call",), -1.0)])
        assert _band(f, PhraseWalk(f).initial()) == (0, 1)

    def test_open_range_covers_all_arcs(self):
        rng = random.Random(77)
        for _ in range(20):
            f = build_catalog_fst(random_catalog(rng))
            state = rng.randrange(f.num_states)
            assert _band(f, PhraseWalk(f).initial(state)) == (0, f.arc_count(state))

    def test_worked_example_increments(self, play_fst):
        walk = PhraseWalk(play_fst)
        s = walk.initial()
        inc, s = walk.expand(s, "pl")
        assert inc == -1.6
        inc, s = walk.expand(s, "ay")
        assert inc == -1.6
        assert s[4] == -3.2
        inc, arc, s = walk.close_word(s, "er_")
        assert inc == pytest.approx(-4.8, abs=1e-12)
        assert play_fst.final[play_fst.targets[arc]]
        assert s[4] == -8.0

    def test_state_gives_walkthrough_row(self, play_fst):
        walk = PhraseWalk(play_fst)
        _, s = walk.expand(walk.initial(), "pl")
        assert len(s[1]) == 2
        assert play_fst.band_summary(s[2], s[3]) == (10, -8.0)
        assert s[4] == -1.6
        assert _band(play_fst, s) == (0, 3)

    def test_both_delimiter_conventions_agree(self, play_fst):
        walk = PhraseWalk(play_fst)
        incs, inc, _, _ = walk_word(walk, ["pl", "ay"], "er_")
        total_fused = incs[0] + incs[1] + inc
        incs, inc, _, _ = walk_word(walk, ["pl", "ay", "er"], "_")
        total_plain = incs[0] + incs[1] + incs[2] + inc
        assert total_fused == total_plain == -8.0

    def test_fallback_from_fresh_session_is_zero(self, play_fst):
        walk = PhraseWalk(play_fst)
        inc, s = walk.expand(walk.initial(), "zz")
        assert inc == 0.0
        assert s[5]

    def test_dead_word_expands_to_nothing(self, play_fst):
        walk = PhraseWalk(play_fst)
        _, s = walk.expand(walk.initial(), "zz")
        assert walk.expand(s, "pl") == (0.0, s)
        session = open_session(play_fst, play_fst.start)
        session.expand("zz")
        assert session.dead
        assert session.expand("pl") == 0.0 and session.dead

    def test_finish_on_dead_session_is_neutral_miss(self, play_fst):
        _, inc, arc, _ = walk_word(PhraseWalk(play_fst), ["pl", "qq"])
        assert inc == 0.0 and arc is None

    def test_delimiter_in_expand_rejected(self, play_fst):
        walk = PhraseWalk(play_fst)
        with pytest.raises(ValueError, match="finish_word"):
            walk.expand(walk.initial(), "er_")

    def test_non_delimiter_finish_rejected(self, play_fst):
        walk = PhraseWalk(play_fst)
        with pytest.raises(ValueError, match="delimiter"):
            walk.close_word(walk.initial(), "er")

    def test_fallback_weight_values(self, play_fst):
        incs, _, _, s = walk_word(PhraseWalk(play_fst), ["pl", "ay", "zz"])
        assert incs[2] == 3.2  # pays back everything emitted
        assert s[5] and s[4] == 0.0

    def test_positive_increment_possible(self):
        f = build_catalog_fst([CatalogEntry(("ab",), -1.0), CatalogEntry(("abcdefgh",), -8.0)])
        # pushed = -8 * 2/8 = -2; the true word weight -1 closes with +1
        _, inc, _, s = walk_word(PhraseWalk(f), ["ab"])
        assert inc == 1.0
        assert s[4] == -1.0


# Every random catalog test below also runs on mixed-sign weights.
_SIGNS = pytest.mark.parametrize("weights", [(-10.0, 0.0), (-10.0, 10.0)],
                                 ids=["negative", "mixed-sign"])


class TestConservation:
    @_SIGNS
    def test_word_weight_conserved_over_all_chunkings(self, weights):
        rng = random.Random(42)
        for _ in range(30):
            entries = random_catalog(rng, max_words=20, max_len=6, weights=weights)
            walk = PhraseWalk(build_catalog_fst(entries))
            catalog = [(e.phrase[0], e.weight) for e in entries]
            for word, weight in catalog:
                for chunks in all_chunkings(word, limit=8):
                    incs, inc, arc, s = walk_word(walk, chunks)
                    total = sum(incs) + inc
                    assert arc is not None
                    assert abs(total - weight) < 1e-12
                    assert s[4] == weight

    @_SIGNS
    def test_increments_match_reference_profile(self, weights):
        rng = random.Random(9)
        for _ in range(30):
            entries = random_catalog(rng, max_words=25, max_len=6, weights=weights)
            walk = PhraseWalk(build_catalog_fst(entries))
            catalog = [(e.phrase[0], e.weight) for e in entries]
            for word, _ in catalog[:10]:
                chunks = all_chunkings(word, limit=3)[-1]
                want_incs, want_final, want_match = pushed_profile(catalog, chunks)
                got, inc, arc, _ = walk_word(walk, chunks)
                assert got == pytest.approx(want_incs, abs=1e-12)
                assert inc == pytest.approx(want_final, abs=1e-12)
                assert (arc is not None) == want_match

    @_SIGNS
    def test_non_catalog_words_are_neutral(self, weights):
        rng = random.Random(5)
        for _ in range(20):
            entries = random_catalog(rng, max_words=20, alphabet="abc", max_len=5,
                                     weights=weights)
            walk = PhraseWalk(build_catalog_fst(entries))
            words = {e.phrase[0] for e in entries}
            for _ in range(10):
                w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
                if w in words:
                    continue
                incs, inc, arc, s = walk_word(walk, list(w))
                total = sum(incs) + inc
                assert arc is None
                assert abs(total) < 1e-12
                assert s[4] == 0.0

    def test_range_never_widens(self, play_fst):
        rng = random.Random(1)
        for _ in range(50):
            entries = random_catalog(rng, max_words=30)
            f = build_catalog_fst(entries)
            walk = PhraseWalk(f)
            word = rng.choice(entries).phrase[0]
            s = walk.initial()
            prev = _band(f, s)
            for ch in word:
                _, s = walk.expand(s, ch)
                lo, hi = _band(f, s)
                assert prev[0] <= lo <= hi <= prev[1]
                prev = (lo, hi)

    def test_cache_transparency(self):
        rng = random.Random(13)
        entries = random_catalog(rng, max_words=40)
        f = build_catalog_fst(entries)
        cache = {}
        cold, warm = PhraseWalk(f), PhraseWalk(f, cache=cache)
        for _ in range(3):  # repeat so the cache actually gets hit
            for e in entries:
                word = e.phrase[0]
                assert walk_word(cold, list(word)) == walk_word(warm, list(word))
        assert cache  # populated


class TestPhraseSession:
    """Multi-word phrases through :class:`PhraseWalk`'s transitions."""

    def _drive(self, walk, text):
        """Feed words character by character from the start; returns the
        total, the outcomes and the walk state reached."""
        state = walk.initial()
        total = 0.0
        outcomes = []
        for word in text.split():
            for ch in word:
                inc, state = walk.expand(state, ch)
                total += inc
            inc, outcome, state = walk.finish_word(state, "_")
            total += inc
            outcomes.append(outcome)
        return total, outcomes, state

    def test_multi_word_phrase_conserved(self):
        f = build_catalog_fst([CatalogEntry(("ada", "lovelace"), -2.0)])
        total, outcomes, _ = self._drive(PhraseWalk(f), "ada lovelace")
        assert total == pytest.approx(-4.0, abs=1e-12)
        assert outcomes == [WordOutcome.CONTINUED, WordOutcome.COMPLETED]

    def test_mid_phrase_failure_is_neutral(self):
        f = build_catalog_fst([CatalogEntry(("ada", "lovelace"), -2.0)])
        total, outcomes, _ = self._drive(PhraseWalk(f), "ada byron")
        assert abs(total) < 1e-12
        assert outcomes[-1] == WordOutcome.FAILED

    def test_completed_phrase_banks_before_continuation_fails(self):
        f = build_catalog_fst([
            CatalogEntry(("ada",), -1.0),
            CatalogEntry(("ada", "lovelace"), -1.0),
        ])
        total, outcomes, _ = self._drive(PhraseWalk(f), "ada byron")
        # "ada" completed a phrase (banked); the failed continuation pays
        # back only its own pushes.
        assert total == pytest.approx(-1.0, abs=1e-12)
        assert outcomes == [WordOutcome.COMPLETED_OPEN, WordOutcome.FAILED]

    def test_greedy_walk_takes_longer_phrase(self):
        f = build_catalog_fst([
            CatalogEntry(("ada",), -1.0),
            CatalogEntry(("ada", "lovelace"), -1.0),
        ])
        total, outcomes, _ = self._drive(PhraseWalk(f), "ada lovelace")
        assert total == pytest.approx(-2.0, abs=1e-12)
        assert outcomes[-1] == WordOutcome.COMPLETED

    def test_finalize_pays_back_unfinished_walk(self):
        f = build_catalog_fst([CatalogEntry(("ada", "lovelace"), -2.0)])
        walk = PhraseWalk(f)
        total, _, state = self._drive(walk, "ada")
        inc, state = walk.expand(state, "lo")
        total += inc
        total += walk.finalize(state)[0]
        assert abs(total) < 1e-12

    def test_finalize_keeps_banked_phrases(self):
        f = build_catalog_fst([CatalogEntry(("ada",), -3.0)])
        walk = PhraseWalk(f)
        total, _, state = self._drive(walk, "ada")
        inc, state = walk.expand(state, "lo")  # start of an unmatched word
        total += inc
        total += walk.finalize(state)[0]
        assert total == pytest.approx(-3.0, abs=1e-12)

    def test_restart_after_completion(self):
        f = build_catalog_fst([CatalogEntry(("ada",), -1.0)])
        total, outcomes, _ = self._drive(PhraseWalk(f), "ada ada")
        assert total == pytest.approx(-2.0, abs=1e-12)
        assert outcomes == [WordOutcome.COMPLETED, WordOutcome.COMPLETED]

    def test_unknown_words_at_start_cost_nothing(self):
        f = build_catalog_fst([CatalogEntry(("ada",), -1.0)])
        total, outcomes, _ = self._drive(PhraseWalk(f), "hello there ada")
        assert total == pytest.approx(-1.0, abs=1e-12)
        assert outcomes[:2] == [WordOutcome.FAILED, WordOutcome.FAILED]

    def test_clone_is_independent(self, play_fst):
        s = PhraseWalk(play_fst).open_session()
        s.expand("pl")
        c = s.clone()
        c.expand("ay")
        assert s.state[1] == "pl"  # the word's prefix
        assert c.state[1] == "play"

    def test_empty_word_is_failed_and_neutral(self, play_fst):
        walk = PhraseWalk(play_fst)
        inc, outcome, _ = walk.finish_word(walk.initial(), "_")
        assert inc == 0.0
        assert outcome == WordOutcome.FAILED


def _random_chunks(rng, word):
    """``word`` split at random cut points into non-empty chunks."""
    cuts = sorted(rng.sample(range(1, len(word)), rng.randint(0, len(word) - 1)))
    return [word[i:j] for i, j in zip([0] + cuts, cuts + [len(word)])]


def _large_catalog(rng, prefixed=0):
    """100-3000 random words with mixed-sign weights, plus ``prefixed`` "q" words.

    The "q" words sort after every random word, so their band starts at an
    arbitrary offset within a block and has exactly ``prefixed`` arcs.
    """
    entries = []
    while len(entries) < 100:
        entries = random_catalog(rng, max_words=3000, weights=(-10.0, 10.0))
    q_words = set()
    while len(q_words) < prefixed:
        q_words.add("q" + "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 6))))
    return entries + [CatalogEntry((w,), rng.uniform(-10.0, 10.0)) for w in sorted(q_words)]


class TestLargeBands:
    """Catalogs big enough for the keyless prefix search and the band index."""

    B = BAND_BLOCK

    def test_band_summary_matches_scan(self):
        rng = random.Random(2024)
        for _ in range(4):
            f = build_catalog_fst(_large_catalog(rng))
            base = f.offsets[f.start]
            n = f.arc_count(f.start)
            widths = {1, self.B, 2 * self.B, 2 * self.B + 1, 2 * self.B + 2, 5 * self.B + 7, n}
            for width in sorted(w for w in widths if w <= n):
                starts = {0, self.B - 1, self.B, self.B + 1, n - width}
                starts |= {rng.randrange(n - width + 1) for _ in range(20)}
                for lo in sorted(s for s in starts if 0 <= s <= n - width):
                    hi = lo + width
                    assert f.band_summary(base + lo, base + hi) == band_scan(
                        f.arc_words, f.weights, base + lo, base + hi)

    def test_band_summary_finds_a_lone_extreme_anywhere(self):
        # One longer, lower-weighted word among equal ones, at every position
        # of the head, block and tail parts of every indexed band around it.
        n = 3 * self.B + 5
        words = [f"a{i:03d}" for i in range(n)]
        for i in range(n):
            f = build_catalog_fst([
                CatalogEntry((w + "zz",), -5.0) if j == i else CatalogEntry((w,), 1.0)
                for j, w in enumerate(words)
            ])
            base = f.offsets[f.start]
            for lo in range(0, i + 1):
                for hi in range(max(i + 1, lo + 2 * self.B + 1), n + 1):
                    assert f.band_summary(base + lo, base + hi) == (6, -5.0)

    def test_bands_at_a_state_past_the_start(self):
        # The state after "x" has more than 3 * B arcs and starts at a column
        # offset off every block boundary, behind states whose words are
        # longer and whose weights differ, so an offset slip shows.
        rng = random.Random(5)
        seconds = set()
        while len(seconds) < 3 * self.B + 9:
            seconds.add("".join(rng.choice("abcdef") for _ in range(rng.randint(1, 9))))
        entries = [CatalogEntry(("x", w), -2.5) for w in sorted(seconds)]
        for first, count in (("a", 7), ("b", 11), ("c", 20), ("y", 3)):
            entries += [CatalogEntry((first, f"longword{i:02d}"), 4.0) for i in range(count)]
        f = build_catalog_fst(entries)
        q = f.targets[f.arc_id(f.start, "x")]
        base = f.offsets[q]
        assert base % self.B != 0
        ref = reference_build_catalog_fst(entries)
        n = ref.arc_count(q)
        ref_base = ref.offsets[q]
        words = ref.arc_words[ref_base : ref_base + n]
        weights = ref.weights[ref_base : ref_base + n]
        assert n > 3 * self.B and f.arc_count(q) == n
        assert (f.arc_words[base : base + n], f.weights[base : base + n]) == (words, weights)
        assert f.targets[base : base + n] == ref.targets[ref_base : ref_base + n]
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                assert f.band_summary(base + lo, base + hi) == band_scan(words, weights, lo, hi)
        probes = {w[:i] for w in words for i in range(1, len(w) + 1)}
        probes |= {"".join(rng.choice("abcdefg") for _ in range(rng.randint(1, 4)))
                   for _ in range(50)}
        for prefix in sorted(probes):
            want = linear_prefix_filter(words, 0, n, prefix)
            assert prefix_range(f.arc_words, base, base + n, prefix) == (
                base + want[0], base + want[1])
            for walk in (PhraseWalk(f), PhraseWalk(f, counter=ProbeCounter())):
                inc, state = walk.expand(walk.initial(q), prefix)
                assert state[2:4] == (base + want[0], base + want[1])
                if want[0] < want[1]:
                    assert inc == pushed_weight(len(prefix), *band_scan(words, weights, *want))
            i = bisect_left(words, prefix)
            assert f.arc_id(q, prefix) == (base + i if i < n and words[i] == prefix else None)

    def test_increments_match_reference_profile(self):
        rng = random.Random(77)
        for size in (2 * self.B - 1, 2 * self.B, 2 * self.B + 1, 3 * self.B + 5):
            entries = _large_catalog(rng, prefixed=size)
            f = build_catalog_fst(entries)
            q_lo, q_hi = prefix_range(
                f.arc_words, f.offsets[f.start], f.offsets[f.start + 1], "q")
            assert q_hi - q_lo == size
            catalog = [(e.phrase[0], e.weight) for e in entries]
            words = [w for w, _ in catalog]
            probes = rng.sample(words, 25) + [w for w in words if w.startswith("q")][:10]
            probes += ["".join(rng.choice("abcdefq") for _ in range(rng.randint(1, 9)))
                       for _ in range(10)]
            for word in probes:
                chunks = _random_chunks(rng, word)
                want_incs, want_final, want_match = pushed_profile(catalog, chunks)
                got, inc, arc, _ = walk_word(PhraseWalk(f), chunks)
                assert got == want_incs
                assert inc == want_final
                assert (arc is not None) == want_match

    @given(
        st.lists(st.text(alphabet="az\u00e9\u4e2d\U0001f600\U0010fffe\U0010ffff",
                         min_size=1, max_size=5), max_size=40, unique=True),
        st.text(alphabet="az\u00e9\U0010fffe\U0010ffff", min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_keyless_prefix_range_matches_counted(self, words, prefix, data):
        words = sorted(words)
        if words and data.draw(st.booleans()):
            word = data.draw(st.sampled_from(words))
            prefix = word[: data.draw(st.integers(1, len(word)))]
        lo = data.draw(st.integers(0, len(words)))
        hi = data.draw(st.integers(lo, len(words)))
        for p in (prefix, prefix + "\U0010ffff", "\U0010ffff" * len(prefix)):
            want = prefix_range(words, lo, hi, p, counter=ProbeCounter())
            assert prefix_range(words, lo, hi, p) == want

    @given(
        st.lists(st.text(alphabet="az\u00e9\u4e2d\U0001f600\U0010fffe\U0010ffff",
                         min_size=1, max_size=5), max_size=40, unique=True),
        st.text(alphabet="az\u00e9\u4e2d\U0001f600\U0010fffe\U0010ffff",
                min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_dead_prefix_costs_one_bisect(self, words, prefix, data):
        words = sorted(words)
        if words and data.draw(st.booleans()):
            # a near miss: a word's first few code points, then another one
            word = data.draw(st.sampled_from(words))
            prefix = word[: data.draw(st.integers(0, len(word) - 1))] + prefix[0]
        lo = data.draw(st.integers(0, len(words)))
        hi = data.draw(st.integers(lo, len(words)))
        assume(not any(w.startswith(prefix) for w in words[lo:hi]))
        counter = ProbeCounter()
        got = prefix_range(words, lo, hi, prefix, counter=counter)
        at = bisect_left(words, prefix, lo, hi)
        assert got == (at, at)
        assert counter.probes <= (hi - lo).bit_length()  # ceil(log2(hi - lo + 1))


_cache_words = st.text(alphabet="abc", min_size=1, max_size=4)


@st.composite
def _catalog_and_streams(draw):
    """A mixed-sign catalog of one- and two-word phrases and several token
    streams over its words and stray words, each word cut into random pieces
    and closed by a bare or fused delimiter."""
    firsts = draw(st.dictionaries(_cache_words, st.floats(-5.0, 5.0), min_size=1, max_size=8))
    seconds = draw(st.sets(st.tuples(st.sampled_from(sorted(firsts)), _cache_words), max_size=4))
    catalog = [CatalogEntry((w,), x) for w, x in firsts.items()] + [
        CatalogEntry(p, firsts[p[0]]) for p in sorted(seconds)
    ]
    words = st.one_of(
        st.sampled_from(sorted({w for e in catalog for w in e.phrase})), _cache_words)
    streams = []
    for _ in range(draw(st.integers(1, 4))):
        tokens = []
        for word in draw(st.lists(words, max_size=6)):
            cuts = sorted(draw(st.sets(st.integers(1, len(word) - 1)))) if len(word) > 1 else []
            pieces = [word[i:j] for i, j in zip([0] + cuts, cuts + [len(word)])]
            if draw(st.booleans()):
                pieces[-1] += "_"
            else:
                pieces.append("_")
            tokens += pieces
        streams.append(tokens)
    return catalog, streams


def _walk_stream(walk, tokens):
    """Every ``(increment, state)`` a walk passes through, ending with finalize."""
    out = []
    state = walk.initial()
    for t in tokens:
        if t.endswith("_"):
            inc, _, state = walk.finish_word(state, t)
        else:
            inc, state = walk.expand(state, t)
        out.append((inc, state))
    out.append(walk.finalize(state))
    return out


class TestSharedWalkCache:
    """One cache shared by many streams holds live bands only, each equal to
    an uncached lookup, and never more than the automaton's prefix pairs."""

    @given(case=_catalog_and_streams())
    @settings(max_examples=300, deadline=None)
    def test_cache_holds_live_exact_bands_within_bound(self, case):
        catalog, streams = case
        f = build_catalog_fst(catalog)
        shared = PhraseWalk(f, cache={})
        for tokens in streams:
            assert _walk_stream(shared, tokens) == _walk_stream(PhraseWalk(f), tokens)
        prefixes = {(q, word[:i]) for q in range(f.num_states)
                    for word in f.arc_words[f.offsets[q] : f.offsets[q + 1]]
                    for i in range(1, len(word) + 1)}
        assert len(shared.cache) <= len(prefixes)
        for (q, prefix), (lo, hi, pushed) in shared.cache.items():
            assert lo < hi
            assert (q, prefix) in prefixes
            assert (lo, hi) == prefix_range(f.arc_words, f.offsets[q], f.offsets[q + 1], prefix)
            assert pushed == pushed_weight(len(prefix), *f.band_summary(lo, hi))
