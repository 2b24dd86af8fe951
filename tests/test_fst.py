import gc
import hashlib
import math
import random
import struct
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslattice.context import build_class_fst
from biaslattice.errors import InputFormatError
from biaslattice.fst import (
    CatalogEntry,
    CatalogError,
    WordFst,
    build_catalog_fst,
    deserialize,
    empty_fst,
    read_catalog,
    serialize,
    validate_fst,
)
from biaslattice.synthdata import make_task
from conftest import random_catalog
from oracles import (
    hand_fst,
    phrase_end,
    reference_build_catalog_fst,
    reference_deserialize_columnar,
    reference_validate,
    trie_arc_count,
)


class TestBuild:
    def test_worked_example_shape(self, play_fst):
        assert play_fst.num_states == 4
        start = play_fst.start
        assert play_fst.arc_count(start) == 3
        assert play_fst.final.count(1) == 3
        lo, hi = play_fst.offsets[start], play_fst.offsets[start + 1]
        assert all(weight == -8.0 for weight in play_fst.weights[lo:hi])

    def test_single_entry(self):
        f = build_catalog_fst([CatalogEntry(("call",), -1.0)])
        assert f.num_states == 2
        assert (f.offsets.tolist(), f.arc_words, f.weights.tolist()) == (
            [0, 1, 1], ["call"], [-1.0])
        assert f.final == b"\0\1"

    def test_arc_count_matches_brute_force_trie(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 50)
            phrases = set()
            while len(phrases) < n:
                length = rng.randint(1, 3)
                phrases.add(
                    tuple(
                        "".join(rng.choice("abcdef") for _ in range(rng.randint(1, 5)))
                        for _ in range(length)
                    )
                )
            entries = [CatalogEntry(p, -1.0) for p in sorted(phrases)]
            f = build_catalog_fst(entries)
            assert f.num_arcs == trie_arc_count([e.phrase for e in entries])
            validate_fst(f)
            for e in entries:
                state, weight = phrase_end(f, e.phrase)
                assert f.final[state]
                assert weight == len(e.phrase) * e.weight

    def test_phrase_paths_sum_to_length_times_weight(self):
        entries = [
            CatalogEntry(("ada", "lovelace"), -2.5),
            CatalogEntry(("ada", "byron"), -2.5),
            CatalogEntry(("alan",), -1.0),
        ]
        f = build_catalog_fst(entries)
        for e in entries:
            state, weight = phrase_end(f, e.phrase)
            assert f.final[state]
            assert weight == pytest.approx(len(e.phrase) * e.weight, abs=1e-12)

    def test_arcs_sorted_strictly(self):
        rng = random.Random(3)
        for _ in range(20):
            f = build_catalog_fst(random_catalog(rng))
            for s in range(f.num_states):
                words = f.arc_words[f.offsets[s] : f.offsets[s + 1]]
                assert all(a < b for a, b in zip(words, words[1:]))

    def test_empty_catalog_rejected(self):
        with pytest.raises(CatalogError):
            build_catalog_fst([])

    def test_duplicate_phrase_rejected(self):
        with pytest.raises(CatalogError, match="duplicate"):
            build_catalog_fst([CatalogEntry(("a",), -1.0), CatalogEntry(("a",), -2.0)])

    def test_words_holding_any_delimiter_build(self):
        # An automaton knows no vocabulary; decoding refuses the delimiter.
        fst = build_catalog_fst([CatalogEntry(("a_b",), -1.0), CatalogEntry(("c|d",), -1.0)])
        assert fst.arc_words == ["a_b", "c|d"]

    def test_conflicting_shared_prefix_weight_rejected(self):
        entries = [
            CatalogEntry(("john", "smith"), -1.0),
            CatalogEntry(("john", "baker"), -2.0),
        ]
        with pytest.raises(CatalogError, match="conflicting"):
            build_catalog_fst(entries)

    def test_non_finite_weight_rejected(self):
        with pytest.raises(CatalogError):
            CatalogEntry(("a",), math.inf)

    @pytest.mark.parametrize("word", ["a b", "a\nb", "a\tb", " a", "a\u2028b", ""])
    def test_whitespace_in_word_rejected(self, word):
        with pytest.raises(CatalogError, match="malformed"):
            CatalogEntry((word,), -1.0)


class TestSerialization:
    def test_worked_example_round_trip(self, play_fst):
        assert deserialize(serialize(play_fst)) == play_fst

    def test_empty_automaton_round_trip(self):
        f = empty_fst()
        assert deserialize(serialize(f)) == f

    def test_random_round_trips(self):
        rng = random.Random(11)
        for _ in range(1000):
            f = build_catalog_fst(random_catalog(rng, max_words=30))
            assert deserialize(serialize(f)) == f

    def test_truncated_stream_reports_offset(self, play_fst):
        data = serialize(play_fst)
        with pytest.raises(InputFormatError, match="offset"):
            deserialize(data[: len(data) - 3])

    def test_bad_magic(self):
        with pytest.raises(InputFormatError, match="magic"):
            deserialize(b"NOTFST" + b"\x00" * 16)

    def test_trailing_bytes_rejected(self, play_fst):
        with pytest.raises(InputFormatError, match="trailing"):
            deserialize(serialize(play_fst) + b"\x00")

    # A retired format is named by its magic alone.
    def test_blfst1_asks_for_a_rebuild(self, play_fst):
        with pytest.raises(InputFormatError, match="^BLFST1 .* rebuild with `biaslattice build"):
            deserialize(b"BLFST1" + serialize(play_fst)[6:])

    def test_blfst2_asks_for_a_rebuild(self, play_fst):
        with pytest.raises(InputFormatError, match="^BLFST2 .* rebuild with `biaslattice build"):
            deserialize(b"BLFST2" + serialize(play_fst)[6:])

    def test_newline_in_word_rejected_by_writer(self):
        f = hand_fst(finals={1}, arcs=[[("a\nb", -1.0)], []])
        with pytest.raises(ValueError, match="newline"):
            serialize(f)

    def test_word_count_must_match_arc_count(self, play_fst):
        data = serialize(play_fst)
        cut = data.rindex(b"\n")
        with pytest.raises(InputFormatError, match="2 arc words for 3 arcs"):
            deserialize(data[:cut] + b"x" + data[cut + 1 :])

    @given(st.lists(
        st.tuples(
            st.text(alphabet="abc", min_size=1, max_size=4),
            st.floats(min_value=-10, max_value=0, allow_nan=False),
        ),
        min_size=1, max_size=12, unique_by=lambda t: t[0],
    ))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, items):
        entries = [CatalogEntry((w,), wt) for w, wt in items]
        f = build_catalog_fst(entries)
        assert deserialize(serialize(f)) == f


class TestCatalogFiles:
    def test_parse_with_defaults_and_comments(self):
        lines = ["# contacts", "", "ada lovelace\t-2", "alan turing", "grace\t0"]
        entries = read_catalog(lines)
        assert entries[0] == CatalogEntry(("ada", "lovelace"), -2.0)
        assert entries[1].weight == -1.0
        assert entries[2].weight == 0.0

    def test_case_folding(self):
        (entry,) = read_catalog(["Ada LOVELACE\t-1"])
        assert entry.phrase == ("ada", "lovelace")

    def test_bad_weight_reports_line(self):
        with pytest.raises(InputFormatError, match=":2:"):
            read_catalog(["ok\t-1", "bad\tnotanumber"])

    def test_empty_file_rejected(self):
        with pytest.raises(InputFormatError, match="no catalog entries"):
            read_catalog(["# nothing here"])


class TestValidate:
    def test_unsorted_arcs_rejected(self):
        f = hand_fst(
            finals=frozenset({1, 2}),
            arcs=((("b", -1.0), ("a", -1.0)), (), ()),
        )
        with pytest.raises(ValueError, match="sorted"):
            validate_fst(f)

    def test_unreachable_state_rejected(self):
        f = hand_fst(
            finals=frozenset({1, 2}),
            arcs=((("a", -1.0),), (), ()),
        )
        with pytest.raises(ValueError, match="unreachable"):
            validate_fst(f)

    def test_dead_end_rejected(self):
        f = hand_fst(
            finals=frozenset(),
            arcs=((("a", -1.0),), ()),
        )
        with pytest.raises(ValueError, match="dead end"):
            validate_fst(f)

    def test_short_column_rejected(self):
        f = build_catalog_fst([CatalogEntry(("a", "b"), 1.0), CatalogEntry(("c",), 1.0)])
        g = WordFst(final=f.final, offsets=f.offsets, arc_words=f.arc_words,
                    weights=f.weights[:-1])
        assert _message(validate_fst, g) == "3 arc words and 2 weights"

    def test_empty_offsets_column_rejected(self):
        g = WordFst(final=b"", offsets=array("I"), arc_words=[], weights=array("d"))
        assert _message(validate_fst, g) == "empty arc offsets column"

    @pytest.mark.parametrize("flag", [2, 3, 0x80, 0xFF])
    def test_flag_other_than_0_or_1_rejected(self, flag):
        """A flag byte that no file may hold is refused before it is written:
        ``deserialize`` would refuse the bytes ``serialize`` makes of it."""
        f = WordFst(final=bytes([0, flag]), offsets=array("I", [0, 1, 1]), arc_words=["a"],
                    weights=array("d", [1.0]))
        assert _message(validate_fst, f) == f"state 1: unknown flags {flag:#x}"
        assert _message(reference_validate, f) == f"state 1: unknown flags {flag:#x}"
        with pytest.raises(InputFormatError, match=f"unknown state flags {flag:#x} at offset 19"):
            deserialize(serialize(f))


# Words over a small alphabet with a non-ASCII letter, so phrases share
# leading words and words share leading letters; weights of both signs,
# zeros of both signs among them.
WORDS = st.text(alphabet="abé", min_size=1, max_size=3)
WEIGHTS = st.sampled_from([0.0, -0.0, 1.8, -1.8, -8.0]) | st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)


@st.composite
def catalogs(draw):
    """Distinct 1-3-word phrases in random order.

    Phrases with the same first word get that word's weight, so shared
    prefix arcs agree; a zero weight takes a random sign per phrase.
    """
    phrases = dict.fromkeys(draw(st.lists(
        st.lists(WORDS, min_size=1, max_size=3).map(tuple), min_size=1, max_size=12,
    )))
    by_first: dict[str, float] = {}
    entries = []
    for phrase in phrases:
        weight = by_first.setdefault(phrase[0], draw(WEIGHTS))
        if weight == 0.0:
            weight = draw(st.sampled_from([0.0, -0.0]))
        entries.append(CatalogEntry(phrase, weight))
    return entries


def outcome(fn, *args):
    """``fn``'s result, or the InputFormatError it raised."""
    try:
        return fn(*args)
    except InputFormatError as exc:
        return exc


class TestBuildParity:
    """The sorted-path builder against the object-trie reference."""

    @given(catalogs())
    @settings(max_examples=200, deadline=None)
    def test_same_automaton(self, entries):
        built = build_catalog_fst(entries)
        expected = reference_build_catalog_fst(entries)
        assert built == expected
        # Bytewise too: ``==`` does not tell -0.0 from 0.0.
        assert serialize(built) == serialize(expected)

    @given(catalogs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_error(self, entries, data):
        entries = list(entries)
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["duplicate", "conflict"]))
            base = data.draw(st.sampled_from(entries))
            if kind == "duplicate":
                bad = CatalogEntry(base.phrase, data.draw(WEIGHTS))
            else:
                keep = data.draw(st.integers(1, len(base.phrase)))
                tail = tuple(data.draw(st.lists(WORDS, min_size=1, max_size=2)))
                bad = CatalogEntry(base.phrase[:keep] + tail, base.weight + 1.0)
            entries.insert(data.draw(st.integers(0, len(entries))), bad)
        expected = outcome(reference_build_catalog_fst, entries)
        assert isinstance(expected, CatalogError)
        with pytest.raises(CatalogError) as info:
            build_catalog_fst(entries)
        assert str(info.value) == str(expected)


def _entries(*lines):
    """Catalog entries from ``(text, weight)`` lines of a file named ``c``."""
    return [CatalogEntry(tuple(text.split()), weight, f"c:{i}")
            for i, (text, weight) in enumerate(lines, 1)]


class TestLineOrder:
    """The builder sweeps the phrases in sorted order.  Where that order and
    the input order disagree, it names the first offending line in input
    order, and it builds the same automaton from the lines in any order."""

    def test_conflict_named_at_its_line(self):
        entries = _entries(("zed", 1.0), ("ada lovelace", 1.0), ("ada", 2.0), ("zed", 1.0))
        with pytest.raises(CatalogError) as info:
            build_catalog_fst(entries)
        assert str(info.value) == (
            "c:3: conflicting weights 1.0 vs 2.0 on shared prefix arc 'ada' (phrase 'ada')")

    def test_duplicate_named_at_its_line(self):
        entries = _entries(("bob", 1.0), ("bob", 1.0), ("ada x", 1.0), ("ada", 3.0))
        with pytest.raises(CatalogError) as info:
            build_catalog_fst(entries)
        assert str(info.value) == "c:2: duplicate catalog phrase: 'bob'"

    @pytest.mark.parametrize("weights", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    def test_a_zero_weight_is_stored_unsigned(self, weights):
        fst = build_catalog_fst(_entries(("ada x", weights[0]), ("ada", weights[1])))
        assert fst.weights.tobytes() == array("d", [0.0, 0.0]).tobytes()

    @given(catalogs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_line_order_builds_the_same_automaton(self, entries, data):
        built = build_catalog_fst(entries)
        shuffled = build_catalog_fst(data.draw(st.permutations(entries)))
        assert serialize(shuffled) == serialize(built)


def _message(fn, fst):
    try:
        fn(fst)
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckParity:
    """``validate_fst`` names the same first violation as the state-by-state
    reference, on sound and broken columns."""

    @given(catalogs(), st.randoms(use_true_random=False), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_first_problem(self, entries, rnd, data):
        f = build_catalog_fst(entries)
        n = f.num_states
        arcs = [[[f.arc_words[i], f.weights[i]] for i in range(f.offsets[s], f.offsets[s + 1])]
                for s in range(n)]
        finals = {s for s in range(n) if f.final[s]}
        flags = {}  # state -> a flag byte other than 0 or 1
        flat = [arc for state_arcs in arcs for arc in state_arcs]
        for _ in range(data.draw(st.integers(0, 2))):
            kind = data.draw(st.sampled_from(
                ["word", "weight", "offset", "add arc", "drop arc", "swap words", "unfinal",
                 "stray final", "flag"]))
            if kind == "word" and flat:
                rnd.choice(flat)[0] = data.draw(st.sampled_from(["", "a", "zz", "é"]))
            elif kind == "weight" and flat:
                rnd.choice(flat)[1] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            elif kind == "offset" and n > 1:
                # offsets[s] moves by one: the arc at it changes owner, from
                # state s - 1 to s or back, and may become the arc into its owner.
                s = data.draw(st.integers(1, n - 1))
                if data.draw(st.booleans()):
                    if arcs[s - 1]:
                        arcs[s].insert(0, arcs[s - 1].pop())
                elif arcs[s]:
                    arcs[s - 1].append(arcs[s].pop(0))
            elif kind == "add arc":
                # One arc more than states but one: some arc leads past the last state.
                rnd.choice(arcs).append([data.draw(st.sampled_from(["a", "éé"])), -1.0])
            elif kind == "drop arc" and any(arcs):
                state_arcs = rnd.choice([a for a in arcs if a])
                state_arcs.remove(rnd.choice(state_arcs))
            elif kind == "swap words" and any(len(a) > 1 for a in arcs):
                # Next states stay with the positions, so only the words fall
                # out of order inside a state.
                a, b = rnd.sample(rnd.choice([a for a in arcs if len(a) > 1]), 2)
                a[0], b[0] = b[0], a[0]
            elif kind == "unfinal":
                finals.discard(rnd.choice(range(n)))
            elif kind == "flag":
                flags[rnd.choice(range(n))] = data.draw(st.sampled_from([2, 3, 0x80, 0xFF]))
            else:
                finals.add(n + 3)
        g = hand_fst(finals=finals, arcs=arcs)
        final = bytearray(g.final)
        for s, flag in flags.items():
            final[s] = flag
        g = WordFst(final=bytes(final), offsets=g.offsets, arc_words=g.arc_words,
                    weights=g.weights)
        assert _message(validate_fst, g) == _message(reference_validate, g)

    def test_states_owning_the_arcs_into_them(self):
        """Offsets ``[0, 0, 1, 2]``: ``offsets[s] < s`` for states 1 and 2, so
        each owns the arc into itself and neither is reachable, though every
        state but the start has an arc into it."""
        f = hand_fst(finals=(), arcs=[[], [("a", -1.0)], [("b", -1.0)]])
        assert f.offsets.tolist() == [0, 0, 1, 2]
        assert _message(validate_fst, f) == "2 states unreachable from start"
        assert _message(reference_validate, f) == "2 states unreachable from start"


class TestLevelOrder:
    """The builder numbers states level by level: the arc into state t is
    arc t - 1, so no column of next states is kept, and ``offsets[s] >= s``
    puts every state's arcs past it.  A builder change that breaks level
    order fails here."""

    @given(catalogs())
    @settings(max_examples=200, deadline=None)
    def test_built_and_loaded_automata_are_level_ordered(self, entries):
        built = build_catalog_fst(entries)
        validate_fst(built)
        loaded = deserialize(serialize(built))
        for f in built, loaded:
            assert f.num_arcs == f.num_states - 1
            assert all(f.offsets[s] >= s for s in range(f.num_states))


class TestReaderParity:
    """The columnar reader against the element-by-element reference."""

    def check(self, data: bytes):
        expected = outcome(reference_deserialize_columnar, data)
        got = outcome(deserialize, data)
        assert type(got) is type(expected)
        if isinstance(expected, InputFormatError):
            assert str(got) == str(expected)
        else:
            assert got == expected

    @given(catalogs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_every_truncation(self, entries):
        data = serialize(build_catalog_fst(entries))
        assert serialize(deserialize(data)) == data
        for cut in range(len(data) + 1):
            self.check(data[:cut])
            # The same prefix ending in a byte that is neither a valid flag
            # byte nor valid UTF-8, so a bad field and a short one compete.
            self.check(data[:cut] + b"\x80")

    @given(catalogs())
    @settings(max_examples=200, deadline=None)
    def test_same_automaton_as_blfst1(self, entries):
        """``BLFST1`` listed each state's arcs as (word, weight, next state)
        records.  Read back from ``BLFST3`` bytes, which store no next state,
        by the package and by the reference, the automaton gives the same
        records, derived here from the phrases alone: the state of a prefix
        is its rank among all prefixes sorted by length, then by words."""
        f = build_catalog_fst(entries)
        data = serialize(f)
        prefixes = sorted({e.phrase[:k] for e in entries for k in range(len(e.phrase) + 1)},
                          key=lambda p: (len(p), p))
        number = {p: s for s, p in enumerate(prefixes)}
        weight = {e.phrase[:k]: e.weight for e in entries for k in range(1, len(e.phrase) + 1)}
        records = [[] for _ in prefixes]
        for p in prefixes[1:]:
            records[number[p[:-1]]].append((p[-1], weight[p], number[p]))
        finals = sorted(number[e.phrase] for e in entries)
        for loaded in deserialize(data), reference_deserialize_columnar(data):
            assert loaded == f
            assert [[(loaded.arc_words[i], loaded.weights[i], loaded.next_state(i))
                     for i in range(loaded.offsets[s], loaded.offsets[s + 1])]
                    for s in range(loaded.num_states)] == records
            assert [s for s, flag in enumerate(loaded.final) if flag] == finals
        assert serialize(deserialize(data)) == data

    @given(catalogs())
    @settings(max_examples=30, deadline=None)
    def test_every_single_byte_flag_value(self, entries):
        """Each byte set to each flag value, so any state may gain or lose
        the final flag or hold an unknown one."""
        data = serialize(build_catalog_fst(entries))
        for at in range(len(data)):
            for value in (0, 1, 2, 3, 0x80):
                self.check(data[:at] + bytes([value]) + data[at + 1 :])

    @given(catalogs())
    @settings(max_examples=30, deadline=None)
    def test_flag_bytes_are_the_final_column(self, entries):
        """A flag byte holds the final flag only; bit 1, which ``BLFST2`` set
        on the start state, is refused."""
        f = build_catalog_fst(entries)
        data = serialize(f)
        flags = range(18, 18 + f.num_states)  # after magic and three u32s
        assert data[flags.start : flags.stop] == f.final
        for at in flags:
            value = data[at] | 2
            with pytest.raises(InputFormatError) as info:
                deserialize(data[:at] + bytes([value]) + data[at + 1 :])
            assert str(info.value) == f"unknown state flags {value:#x} at offset {at}"

    @given(catalogs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupt_bytes(self, entries, data):
        buf = bytearray(serialize(build_catalog_fst(entries)))
        hits = data.draw(st.lists(
            st.tuples(st.integers(0, len(buf) - 1), st.integers(0, 255)),
            min_size=1, max_size=3,
        ))
        for at, value in hits:
            buf[at] = value
        self.check(bytes(buf))
        self.check(bytes(buf[: data.draw(st.integers(0, len(buf)))]))

    def test_empty_automaton_truncations(self):
        data = serialize(empty_fst())
        for cut in range(len(data) + 1):
            self.check(data[:cut])


def _hand_built(state_arcs, finals) -> bytes:
    """``BLFST3`` bytes of an automaton built by hand, unchecked."""
    return serialize(hand_fst(finals=finals, arcs=state_arcs))


class TestReaderPrecedence:
    """Byte-level errors come first, with truncation and trailing bytes found
    by one length check; structural errors then name the first violation in
    state order."""

    def reject(self, data: bytes, match: str):
        with pytest.raises(InputFormatError) as info:
            deserialize(data)
        assert str(info.value) == str(outcome(reference_deserialize_columnar, data))
        assert match in str(info.value)

    def test_truncation_beats_an_earlier_sort_violation(self):
        data = _hand_built(
            [[("a", -1.0), ("c", -1.0)], [("z", -1.0), ("b", -1.0)], [], [], []],
            finals={2, 3, 4},
        )
        self.reject(data, "state 1: arcs not strictly sorted at 'b'")
        self.reject(data[:-1], "truncated automaton")
        self.reject(data + b"\x00", "trailing bytes")

    def test_earlier_violation_wins(self):
        unsorted = [("z", -1.0), ("b", -1.0)]
        infinite = [("c", math.inf)]
        leaves = [[], [], []]
        self.reject(
            _hand_built([[("a", -1.0), ("b", -1.0)], unsorted, infinite] + leaves,
                        finals={3, 4, 5}),
            "state 1: arcs not strictly sorted at 'b'",
        )
        self.reject(
            _hand_built([[("a", -1.0), ("b", -1.0)], infinite, unsorted] + leaves,
                        finals={3, 4, 5}),
            "state 1: non-finite weight on 'c'",
        )
        # Within one arc the checks keep validate_fst's order.
        self.reject(
            _hand_built([[("a", -1.0)], [("z", -1.0), ("b", math.nan)], []], finals={2}),
            "state 1: arcs not strictly sorted at 'b'",
        )
        self.reject(
            _hand_built([[("a", -1.0)], [("z", -1.0), ("", math.nan)], []], finals={2}),
            "state 1: empty arc word",
        )

    def test_dead_end_beats_a_later_arc_violation(self):
        self.reject(
            _hand_built([[("a", -1.0), ("b", -1.0)], [], [("z", -1.0), ("c", -1.0)], [], []],
                        finals={3, 4}),
            "state 1 is a non-final dead end",
        )

    def test_the_header_start_must_be_0(self):
        """The start field of the header is always 0.  Any other value is a
        byte-level error: it beats every structural one and an unknown flag
        byte, and a short or long file is refused for its length first."""
        data = _hand_built([[("b", -1.0), ("a", -1.0)], [], []], finals={1, 2})
        self.reject(data, "state 0: arcs not strictly sorted at 'a'")
        for start in 1, 2, 3, 7, 2**32 - 1:
            bad = bytearray(data)
            bad[10:14] = start.to_bytes(4, "little")  # after magic and num_states
            refusal = f"start state {start} is not state 0, the one no arc enters"
            self.reject(bytes(bad), refusal)
            bad[18] = 2  # the first flag byte
            self.reject(bytes(bad), refusal)
            self.reject(bytes(bad[:-1]), "truncated automaton")
            self.reject(bytes(bad) + b"\0", "trailing bytes")

    def test_no_states_means_no_start_state(self):
        self.reject(_hand_built([], finals=()), "malformed automaton: start state 0 out of range")


class TestFinalColumn:
    """Final states are one flag byte per state, however the automaton was made."""

    ARCS = [[("a", -1.0), ("b", -1.0)], [], [("c", -1.0)], []]

    def test_hand_built_from_columns_and_loaded_give_the_same_set(self):
        f = hand_fst(finals={1, 3}, arcs=self.ARCS)
        assert f.final == b"\0\1\0\1"
        g = WordFst(final=bytes([0, 1, 0, 1]), offsets=f.offsets,
                    arc_words=f.arc_words, weights=f.weights)
        assert g == f  # every column, the final flags too
        loaded = deserialize(serialize(f))
        assert loaded == f
        assert type(loaded.final) is bytes

    @given(catalogs())
    @settings(max_examples=60, deadline=None)
    def test_built_and_loaded_finals_are_the_phrase_ends(self, entries):
        f = build_catalog_fst(entries)
        ends = frozenset(phrase_end(f, e.phrase)[0] for e in entries)
        assert f.final == deserialize(serialize(f)).final == bytes(
            s in ends for s in range(f.num_states))

    def test_stray_final_is_named_out_of_range(self):
        n = len(self.ARCS)
        f = hand_fst(finals={1, 3, n + 3}, arcs=self.ARCS)
        assert f.final == bytes([0, 1, 0, 1, 0, 0, 0, 1])
        assert _message(validate_fst, f) == f"state {n + 3} out of range"
        assert _message(reference_validate, f) == f"state {n + 3} out of range"
        # The stray final is not written: flags cover the states only.
        assert deserialize(serialize(f)).final == b"\0\1\0\1"

    def test_earlier_violation_beats_a_stray_final(self):
        f = hand_fst(finals={3, 9}, arcs=self.ARCS)
        assert _message(validate_fst, f) == "state 1 is a non-final dead end"
        assert _message(reference_validate, f) == "state 1 is a non-final dead end"

    def test_short_final_column_is_named(self):
        f = hand_fst(finals={1, 3}, arcs=self.ARCS)
        g = WordFst(final=f.final[:3], offsets=f.offsets,
                    arc_words=f.arc_words, weights=f.weights)
        assert _message(validate_fst, g) == "3 final flags for 4 states"

    def test_the_constructor_takes_only_columns(self):
        with pytest.raises(TypeError):
            WordFst(start=0, finals=(), arcs=((),))
        with pytest.raises(TypeError):
            WordFst(start=0, final=b"\0", offsets=array("I", [0, 0]), arc_words=[],
                    weights=array("d"))
        with pytest.raises(TypeError):
            WordFst(b"\0", array("I", [0, 0]), [], array("d"))
        assert empty_fst() == WordFst(final=b"\0", offsets=array("I", [0, 0]),
                                      arc_words=[], weights=array("d"))
        validate_fst(empty_fst())

    @given(catalogs())
    @settings(max_examples=30, deadline=None)
    def test_an_automaton_holds_its_columns_and_nothing_else(self, entries):
        """Built or loaded, a ``WordFst`` has four slots and no ``__dict__``,
        so nothing derived from the columns can be cached on it."""
        built = build_catalog_fst(entries)
        for f in built, deserialize(serialize(built)):
            assert not hasattr(f, "__dict__")
            assert f.__slots__ == ("final", "offsets", "arc_words", "weights")
            assert f.start == 0
            with pytest.raises(AttributeError):
                f.final = b""


class TestFormatPin:
    """``BLFST3`` bytes of the seed-7 task's catalog and class automata,
    pinned as (bytes, sha256).  They are the level-order ``BLFST2`` files
    pinned before, less the next-state block and the start state's bit 1: put
    back, those give the old pins' hashes."""

    PINS = [
        (17288, "6ff1c2fa241399c4f52f35b13edde0f8131cc6bb9b18ac8da7a24b1f0714e1ca"),
        (412, "0d9531168742cd98922cc9ca2dde6bf270ec65bde11b3405efc322aca41cfca5"),
    ]
    BLFST2_PINS = [
        (20792, "10eee60ae3de90d1cf02d35fbd9b1d0525602e128967f32cc2c51c9777a9214d"),
        (484, "a10146e96c404efea3fffa3805449ddcb5162bcd75b331210552040de2c0256a"),
    ]

    def automata(self):
        task = make_task(7)
        return [build_catalog_fst(task.all_bias_entries()),
                build_class_fst(task.class_corpus, min_count=10).fst]

    def pinned(self, data: bytes):
        return len(data), hashlib.sha256(data).hexdigest()

    def test_seed7_bytes(self):
        automata = self.automata()
        files = list(map(serialize, automata))
        assert list(map(self.pinned, files)) == self.PINS
        assert list(map(deserialize, files)) == automata
        for data in files:
            assert serialize(deserialize(data)) == data

    def test_seed7_columnar_bytes(self):
        """The columns ``BLFST3`` keeps are the ``BLFST2`` columns byte for
        byte: with the magic, the start state's bit 1 and the next states
        1 .. n - 1 put back, each file hashes to its ``BLFST2`` pin."""

        def as_blfst2(data: bytes) -> bytes:
            n, start, num_arcs = struct.unpack_from("<III", data, 6)
            assert num_arcs == n - 1
            flags = bytearray(data[18 : 18 + n])
            flags[start] |= 2
            weights_at = 18 + n + 4 * (n + 1)  # after the flags and the offsets
            return (b"BLFST2" + data[6:18] + bytes(flags) + data[18 + n : weights_at]
                    + struct.pack(f"<{num_arcs}I", *range(1, n)) + data[weights_at:])

        files = list(map(serialize, self.automata()))
        assert [self.pinned(as_blfst2(data)) for data in files] == self.BLFST2_PINS


def _retained_bytes(fn, *args):
    """(``fn(*args)``, bytes it allocated and still holds once it returned)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestRetainedMemory:
    """An automaton keeps its columns and its words, and no object per state.

    On a 20k-entry catalog a built automaton keeps about 22 B per arc (its
    words are the catalog's strings) and a loaded one about 77 B (its own
    strings, one list slot each, and the columns).  A frozenset of final
    states alone costs about 70 B per arc at this size, so it breaks both
    bounds."""

    BUILT_BYTES_PER_ARC = 50
    LOADED_BYTES_PER_ARC = 100

    def test_built_and_loaded_automata_keep_no_per_state_objects(self):
        entries = make_task(7, n_contacts=20_000, n_test=1).all_bias_entries()
        assert len(entries) > 20_000
        built, built_bytes = _retained_bytes(build_catalog_fst, entries)
        loaded, loaded_bytes = _retained_bytes(deserialize, serialize(built))
        assert loaded == built
        assert built_bytes < self.BUILT_BYTES_PER_ARC * built.num_arcs
        assert loaded_bytes < self.LOADED_BYTES_PER_ARC * loaded.num_arcs
