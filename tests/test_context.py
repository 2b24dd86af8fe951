import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biaslattice.context import (
    ContextualBiaser,
    Span,
    build_class_fst,
    parse_annotated,
    read_bindings,
)
from biaslattice.errors import InputFormatError
from biaslattice.fst import CatalogEntry, build_catalog_fst
from biaslattice.lookahead import PhraseWalk
from conftest import random_catalog
from oracles import phrase_end, reference_tag_race


class TestParseAnnotated:
    def test_mixed_line(self):
        toks = parse_annotated("call @contactname(ada lovelace) now")
        assert toks == ["call", Span("@contactname", ("ada", "lovelace")), "now"]

    def test_unclosed_span(self):
        with pytest.raises(InputFormatError, match="column"):
            parse_annotated("call @contactname(ada")

    def test_empty_span(self):
        with pytest.raises(InputFormatError, match="empty span"):
            parse_annotated("call @contactname()")

    def test_stray_paren(self):
        with pytest.raises(InputFormatError, match="stray"):
            parse_annotated("call ada)")

    def test_bare_tag_rejected(self):
        with pytest.raises(InputFormatError):
            parse_annotated("call @contactname")


class TestBuildClassFst:
    def test_threshold_keeps_frequent_template(self):
        lines = [f"call @contactname(name{i})" for i in range(12)]
        cfst = build_class_fst(lines, min_count=10)
        assert cfst.tags == {"@contactname"}
        state, weight = phrase_end(cfst.fst, ("call", "@contactname"))
        assert cfst.fst.final[state]
        assert weight == 0.0

    def test_threshold_drops_rare_template(self):
        lines = [f"call @contactname(n{i})" for i in range(12)]
        lines += ["maybe call @contactname(x)"] * 9
        cfst = build_class_fst(lines, min_count=10)
        assert phrase_end(cfst.fst, ("maybe", "call", "@contactname")) is None

    def test_empty_corpus_gives_bare_start(self):
        cfst = build_class_fst([], min_count=10)
        assert cfst.fst.num_states == 1
        assert cfst.tags == frozenset()

    def test_line_order_does_not_matter(self):
        lines = [f"call @contactname(n{i})" for i in range(11)]
        lines += [f"open @appname(a{i})" for i in range(10)]
        rng = random.Random(3)
        shuffled = lines[:]
        rng.shuffle(shuffled)
        a = build_class_fst(lines, min_count=10)
        b = build_class_fst(shuffled, min_count=10)
        assert a.fst == b.fst and a.tags == b.tags

    def test_counts_match_brute_force_filter(self):
        rng = random.Random(8)
        templates = ["call @contactname(X)", "open @appname(Y)", "play music",
                     "dial @contactname(Z) now"]
        lines = [rng.choice(templates) for _ in range(120)]
        counts = Counter()
        for ln in lines:
            key = []
            for tok in parse_annotated(ln.lower()):
                key.append(tok.tag if isinstance(tok, Span) else tok)
            counts[tuple(key)] += 1
        for threshold in (1, 10, 25, 60):
            cfst = build_class_fst(lines, min_count=threshold)
            kept = {t for t, c in counts.items() if c >= threshold}
            # A trie has one path per final state: the kept templates end in
            # final states, the others do not, and no other phrase is left.
            for template in counts:
                end = phrase_end(cfst.fst, template)
                assert (end is not None and cfst.fst.final[end[0]]) == (template in kept)
            assert cfst.fst.final.count(1) == len(kept)

    def test_malformed_line_reports_number(self):
        with pytest.raises(InputFormatError, match=":2:"):
            build_class_fst(["call @contactname(a)", "bad @tag("], min_count=1)

    def test_min_count_validation(self):
        with pytest.raises(ValueError):
            build_class_fst([], min_count=0)


def make_biaser(bindings_entries, templates, min_count=1, delimiter="_"):
    lines = [t for t in templates for _ in range(min_count)]
    cfst = build_class_fst(lines, min_count=min_count)
    bindings = {
        tag: build_catalog_fst(entries) for tag, entries in bindings_entries.items()
    }
    return ContextualBiaser(cfst, bindings, delimiter=delimiter)


def drive(session, text):
    total = 0.0
    per_word = []
    for word in text.split():
        inc = 0.0
        for ch in word:
            inc += session.expand(ch)
        inc += session.finish_word("_")
        per_word.append(inc)
        total += inc
    return total, per_word


class TestContextSession:
    def test_template_boost_passes_through(self):
        biaser = make_biaser(
            {"@contactname": [CatalogEntry(("john",), -2.0)]},
            ["call @contactname(john)"],
        )
        session = biaser.open_session()
        total, per_word = drive(session, "call john")
        assert per_word[0] == 0.0
        assert total == pytest.approx(-2.0, abs=1e-12)

    def test_out_of_template_words_are_free(self):
        biaser = make_biaser(
            {"@contactname": [CatalogEntry(("john",), -2.0)]},
            ["call @contactname(john)"],
        )
        session = biaser.open_session()
        total, _ = drive(session, "play some music john")
        # "john" outside the template gets no boost: the tag is not offered
        # at the start state.
        assert total == 0.0

    def test_unmatched_tag_word_is_neutral(self):
        biaser = make_biaser(
            {"@contactname": [CatalogEntry(("john",), -2.0)]},
            ["call @contactname(john)"],
        )
        session = biaser.open_session()
        total, _ = drive(session, "call mary")
        assert abs(total) < 1e-12

    def test_plain_word_after_carrier_still_matches_skeleton(self):
        biaser = make_biaser(
            {"@contactname": [CatalogEntry(("john",), -2.0)]},
            ["call @contactname(john) now", "call mom now"],
        )
        session = biaser.open_session()
        total, per_word = drive(session, "call mom now")
        assert total == 0.0
        session2 = biaser.open_session()
        total2, per_word2 = drive(session2, "call john now")
        assert total2 == pytest.approx(-2.0, abs=1e-12)

    def test_tag_only_template_equals_plain_lookahead(self):
        rng = random.Random(21)
        for _ in range(15):
            entries = random_catalog(rng, max_words=15, alphabet="abc", max_len=5)
            # add a nested pair so banking paths get exercised
            entries = entries + [
                CatalogEntry((entries[0].phrase[0], "zz"), entries[0].weight)
            ]
            fst = build_catalog_fst(entries)
            biaser = make_biaser({"@any": entries}, ["@any(x)"])
            ctx_session = biaser.open_session()
            plain = PhraseWalk(fst).open_session()
            words = [e.phrase[0] for e in entries] + ["qqq", "ab"]
            rng.shuffle(words)
            text = " ".join(words)
            got_total, got_words = drive(ctx_session, text)
            want_total = 0.0
            want_words = []
            for word in text.split():
                inc = sum(plain.expand(c) for c in word)
                winc = plain.finish_word("_")
                want_words.append(inc + winc)
                want_total += inc + winc
            assert got_words == pytest.approx(want_words, abs=1e-12)
            assert got_total == pytest.approx(want_total, abs=1e-12)

    def test_multi_word_member_spans_words(self):
        biaser = make_biaser(
            {"@contactname": [CatalogEntry(("ada", "lovelace"), -2.0)]},
            ["call @contactname(ada lovelace)"],
        )
        session = biaser.open_session()
        total, _ = drive(session, "call ada lovelace")
        assert total == pytest.approx(-4.0, abs=1e-12)

    def test_failed_continuation_keeps_banked_name(self):
        biaser = make_biaser(
            {"@contactname": [
                CatalogEntry(("ada",), -1.0),
                CatalogEntry(("ada", "lovelace"), -1.0),
            ]},
            ["call @contactname(ada) now"],
        )
        session = biaser.open_session()
        total, _ = drive(session, "call ada next")
        assert total == pytest.approx(-1.0, abs=1e-12)

    def test_word_closing_a_tag_retries_on_skeleton(self):
        biaser = make_biaser(
            {"@contactname": [
                CatalogEntry(("ada",), -1.0),
                CatalogEntry(("ada", "lovelace"), -1.0),
            ]},
            ["call @contactname(ada) now"],
        )
        session = biaser.open_session()
        drive(session, "call ada now")
        # after "now" the skeleton should sit at the template end
        end_state, _ = phrase_end(biaser.class_fst.fst, ("call", "@contactname", "now"))
        assert session.state[0] == end_state

    def test_two_tags_at_one_state(self):
        biaser = make_biaser(
            {
                "@contactname": [CatalogEntry(("john",), -2.0)],
                "@appname": [CatalogEntry(("maps",), -3.0)],
            },
            ["open @contactname(john)", "open @appname(maps)"],
        )
        for word, want in (("john", -2.0), ("maps", -3.0), ("nope", 0.0)):
            session = biaser.open_session()
            total, _ = drive(session, f"open {word}")
            assert total == pytest.approx(want, abs=1e-12), word

    def test_banked_phrase_survives_losing_race(self):
        # Walk A banks "john" then fails; walk B continues longer and dies
        # with nothing: the banked phrase must still be kept.
        biaser = make_biaser(
            {
                "@a": [CatalogEntry(("john",), -1.0),
                       CatalogEntry(("john", "smith"), -1.0)],
                "@b": [CatalogEntry(("john", "smithson", "x"), -1.0)],
            },
            ["go @a(john)", "go @b(john smithson x)"],
        )
        session = biaser.open_session()
        total, _ = drive(session, "go john smithson zz")
        assert total == pytest.approx(-1.0, abs=1e-12)

    def test_finalize_mid_tag_pays_back(self):
        biaser = make_biaser(
            {"@contactname": [CatalogEntry(("johnson",), -2.0)]},
            ["call @contactname(johnson)"],
        )
        session = biaser.open_session()
        total, _ = drive(session, "call")
        total += session.expand("jo")
        total += session.finalize()
        assert abs(total) < 1e-12

    def test_clone_is_independent(self):
        biaser = make_biaser(
            {"@contactname": [CatalogEntry(("john",), -2.0)]},
            ["call @contactname(john)"],
        )
        a = biaser.open_session()
        drive(a, "call")
        b = a.clone()
        ia = a.expand("jo")
        # the clone sees the same increment for the same token
        assert b.expand("jo") == ia

    def test_unbound_tag_rejected_at_bind_time(self):
        cfst = build_class_fst(["call @contactname(x)"], min_count=1)
        with pytest.raises(ValueError, match="unbound"):
            ContextualBiaser(cfst, {})


class TestFuzz:
    def test_random_streams_are_deterministic_and_settle(self):
        rng = random.Random(404)
        for trial in range(25):
            tags = ["@a", "@b"][: rng.randint(1, 2)]
            bindings_entries = {
                tag: random_catalog(rng, max_words=8, alphabet="abc", max_len=4)
                for tag in tags
            }
            carriers = ["go", "do", "up"]
            templates = [
                f"{rng.choice(carriers)} {tag}(x)" for tag in tags
            ] + [f"{rng.choice(carriers)} {rng.choice('abc')}"]
            biaser = make_biaser(bindings_entries, templates)

            def stream(session):
                rs = random.Random(1000 + trial)
                total = 0.0
                for _ in range(30):
                    if rs.random() < 0.25:
                        total += session.finish_word("_")
                    else:
                        total += session.expand(rs.choice("abc"))
                return total, session

            t1, s1 = stream(biaser.open_session())
            t2, s2 = stream(biaser.open_session())
            assert t1 == t2

            # a clone mid-stream scores the remaining tokens identically
            s3 = biaser.open_session()
            half_total = 0.0
            rs = random.Random(1000 + trial)
            moves = [("f" if rs.random() < 0.25 else rs.choice("abc")) for _ in range(30)]
            for mv in moves[:15]:
                half_total += s3.finish_word("_") if mv == "f" else s3.expand(mv)
            c = s3.clone()
            rest_a = sum(
                (s3.finish_word("_") if mv == "f" else s3.expand(mv)) for mv in moves[15:]
            )
            rest_b = sum(
                (c.finish_word("_") if mv == "f" else c.expand(mv)) for mv in moves[15:]
            )
            assert rest_a == rest_b

            # settle: after finalize nothing unearned remains outstanding
            fin = s1.finalize()
            assert math.isfinite(fin)
            assert s1.finalize() == 0.0  # idempotent once settled


_race_words = st.text(alphabet="abc", min_size=1, max_size=3)


@st.composite
def _tag_races(draw):
    """1-3 tags offered at the template's start, each bound to a mixed-sign
    catalog of one- to three-word phrases over a shared pool of words, and a
    token stream over the pool and stray words.  Each word is cut into
    random pieces and closed by a bare or fused delimiter; empty words (a
    delimiter after another) drop in between, and the stream may end in the
    middle of a word."""
    pool = sorted(draw(st.sets(_race_words, min_size=1, max_size=4)))
    catalogs = {}
    for tag in ("@a", "@b", "@c")[: draw(st.integers(1, 3))]:
        # A phrase weighs what its first word does, so phrases sharing a
        # prefix agree on its arc weights.
        firsts = draw(st.dictionaries(st.sampled_from(pool), st.floats(-5.0, 5.0), min_size=1))
        phrases = draw(st.sets(
            st.tuples(st.sampled_from(sorted(firsts)), st.lists(st.sampled_from(pool), max_size=2))
            .map(lambda fw: (fw[0], *fw[1])),
            min_size=1, max_size=4))
        catalogs[tag] = [CatalogEntry(p, firsts[p[0]]) for p in sorted(phrases)]
    tokens = []
    for word in draw(st.lists(st.one_of(st.sampled_from(pool), _race_words), max_size=6)):
        cuts = sorted(draw(st.sets(st.integers(1, len(word) - 1)))) if len(word) > 1 else []
        pieces = [word[i:j] for i, j in zip([0] + cuts, cuts + [len(word)])]
        if draw(st.booleans()):
            pieces[-1] += "_"
        else:
            pieces.append("_")
        tokens += pieces + draw(st.lists(st.just("_"), max_size=1))
    tokens += draw(st.lists(_race_words, max_size=1))
    return catalogs, tokens


def _race_totals(case):
    """The contextual biaser's running totals over the stream, then after
    finalize, and the cumulative reference's."""
    catalogs, tokens = case
    biaser = make_biaser(catalogs, [f"{tag}(x)" for tag in catalogs])
    session = biaser.open_session()
    got, total = [], 0.0
    for token in tokens:
        total += session.finish_word(token) if token.endswith("_") else session.expand(token)
        got.append(total)
    got.append(total + session.finalize())
    fsts = {tag: build_catalog_fst(entries) for tag, entries in catalogs.items()}
    return got, reference_tag_race(fsts, tokens)


# @a banks "a" (+1) with "a a" still open while @b is mid-way through "a a".
_BANKED_AND_OPEN = (
    {"@a": [CatalogEntry(("a",), 1.0), CatalogEntry(("a", "a"), 1.0)],
     "@b": [CatalogEntry(("a", "a"), 0.0)]},
    ["a", "_"],
)


class TestTagRaceReference:
    """The contextual biaser's running total against the cumulative tag-race
    reference."""

    @given(case=_tag_races())
    @example(case=_BANKED_AND_OPEN)
    @settings(max_examples=400, deadline=None)
    def test_running_total_matches_after_every_token(self, case):
        got, want = _race_totals(case)
        assert got[:-1] == pytest.approx(want[:-1], abs=1e-9)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "finalize weighs a tag that banked nothing as a 0 candidate, so an open "
        "race ending at end of stream can drop a banked phrase"))
    @given(case=_tag_races())
    @example(case=_BANKED_AND_OPEN)
    @settings(max_examples=400, deadline=None)
    def test_total_matches_after_finalize(self, case):
        got, want = _race_totals(case)
        assert got[-1] == pytest.approx(want[-1], abs=1e-9)


class TestBindings:
    def test_manifest_parsing(self):
        got = read_bindings(["@contactname\tcontacts.fst", "# c", "@appname\tapps.fst"])
        assert got == {"@contactname": "contacts.fst", "@appname": "apps.fst"}

    def test_bad_line(self):
        with pytest.raises(InputFormatError):
            read_bindings(["contactname contacts.fst"])
