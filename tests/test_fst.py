import gc
import hashlib
import math
import random
import tracemalloc

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
    phrase_end,
    reference_build_catalog_fst,
    reference_deserialize,
    reference_deserialize_columnar,
    reference_serialize,
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
        assert (f.offsets.tolist(), f.arc_words, f.weights.tolist(), f.targets.tolist()) == (
            [0, 1, 1], ["call"], [-1.0], [1])
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

    def test_delimiter_in_word_rejected(self):
        with pytest.raises(CatalogError, match="delimiter"):
            build_catalog_fst([CatalogEntry(("a_b",), -1.0)])

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

    def test_blfst1_asks_for_a_rebuild(self, play_fst):
        with pytest.raises(InputFormatError, match="rebuild with `biaslattice build-fst`"):
            deserialize(reference_serialize(play_fst))

    def test_newline_in_word_rejected_by_writer(self):
        f = WordFst(start=0, finals={1}, arcs=[[("a\nb", -1.0, 1)], []])
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
        f = WordFst(
            start=0,
            finals=frozenset({1, 2}),
            arcs=((("b", -1.0, 1), ("a", -1.0, 2)), (), ()),
        )
        with pytest.raises(ValueError, match="sorted"):
            validate_fst(f)

    def test_unreachable_state_rejected(self):
        f = WordFst(
            start=0,
            finals=frozenset({1, 2}),
            arcs=((("a", -1.0, 1),), (), ()),
        )
        with pytest.raises(ValueError, match="unreachable"):
            validate_fst(f)

    def test_dead_end_rejected(self):
        f = WordFst(
            start=0,
            finals=frozenset(),
            arcs=((("a", -1.0, 1),), ()),
        )
        with pytest.raises(ValueError, match="dead end"):
            validate_fst(f)


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
            kind = data.draw(st.sampled_from(["duplicate", "delimiter", "conflict"]))
            base = data.draw(st.sampled_from(entries))
            keep = data.draw(st.integers(0, len(base.phrase)))
            if kind == "duplicate":
                bad = CatalogEntry(base.phrase, data.draw(WEIGHTS))
            elif kind == "delimiter":
                bad = CatalogEntry(base.phrase[:keep] + ("a_é",), base.weight)
            else:
                tail = tuple(data.draw(st.lists(WORDS, min_size=1, max_size=2)))
                bad = CatalogEntry(base.phrase[:max(keep, 1)] + tail, base.weight + 1.0)
            entries.insert(data.draw(st.integers(0, len(entries))), bad)
        expected = outcome(reference_build_catalog_fst, entries)
        assert isinstance(expected, CatalogError)
        with pytest.raises(CatalogError) as info:
            build_catalog_fst(entries)
        assert str(info.value) == str(expected)


def _message(fn, fst):
    try:
        fn(fst)
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckParity:
    """``validate_fst`` names the same first violation as the state-by-state
    reference, under any state numbering, sound or broken."""

    @given(catalogs(), st.randoms(use_true_random=False), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_first_problem(self, entries, rnd, data):
        f = build_catalog_fst(entries)
        n = f.num_states
        number = list(range(n))
        if data.draw(st.booleans()):
            rnd.shuffle(number)
        arcs = [None] * n
        for s in range(n):
            lo, hi = f.offsets[s], f.offsets[s + 1]
            arcs[number[s]] = [[w, wt, number[t]] for w, wt, t in
                               zip(f.arc_words[lo:hi], f.weights[lo:hi], f.targets[lo:hi])]
        finals = {number[s] for s in range(n) if f.final[s]}
        start = number[f.start]
        flat = [arc for state_arcs in arcs for arc in state_arcs]
        for _ in range(data.draw(st.integers(0, 2))):
            kind = data.draw(st.sampled_from(
                ["word", "weight", "target", "drop arc", "unfinal", "start", "stray final"]))
            if kind == "word" and flat:
                rnd.choice(flat)[0] = data.draw(st.sampled_from(["", "a", "zz", "é"]))
            elif kind == "weight" and flat:
                rnd.choice(flat)[1] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            elif kind == "target" and flat:
                rnd.choice(flat)[2] = data.draw(st.integers(0, n + 1))
            elif kind == "drop arc" and any(arcs):
                state_arcs = rnd.choice([a for a in arcs if a])
                state_arcs.remove(rnd.choice(state_arcs))
            elif kind == "unfinal":
                finals.discard(rnd.choice(range(n)))
            elif kind == "start":
                start = data.draw(st.integers(0, n))
            else:
                finals.add(n + 3)
        g = WordFst(start=start, finals=finals, arcs=arcs)
        assert _message(validate_fst, g) == _message(reference_validate, g)

    def test_cycle_behind_distinct_targets(self):
        """Start 0 and every state but 0 a target once, yet 2 -> 3 -> 2 is cut off."""
        f = WordFst(
            start=0,
            finals={1, 4},
            arcs=[[("a", -1.0, 1)], [], [("a", -1.0, 3)], [("a", -1.0, 4), ("b", -1.0, 2)], []],
        )
        assert _message(validate_fst, f) == "3 states unreachable from start"
        assert _message(reference_validate, f) == "3 states unreachable from start"


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
        for cut in range(len(data)):
            self.check(data[:cut])
            # The same prefix ending in a byte that is neither a valid flag
            # byte nor valid UTF-8, so a bad field and a short one compete.
            self.check(data[:cut] + b"\x80")

    @given(catalogs())
    @settings(max_examples=200, deadline=None)
    def test_same_automaton_as_blfst1(self, entries):
        f = build_catalog_fst(entries)
        data = serialize(f)
        assert deserialize(data) == reference_deserialize(reference_serialize(f)) == f
        assert serialize(deserialize(data)) == data

    @given(catalogs())
    @settings(max_examples=30, deadline=None)
    def test_every_single_byte_flag_value(self, entries):
        """Each byte set to each flag value, so any state may gain the final
        and phi bits, and to an invalid one."""
        data = serialize(build_catalog_fst(entries))
        for at in range(len(data)):
            for value in (0, 1, 2, 3, 0x80):
                self.check(data[:at] + bytes([value]) + data[at + 1 :])

    @given(catalogs())
    @settings(max_examples=30, deadline=None)
    def test_phi_bit_is_written_on_the_start_and_ignored_on_read(self, entries):
        f = build_catalog_fst(entries)
        data = bytearray(serialize(f))
        flags = range(18, 18 + f.num_states)  # after magic and three u32s
        assert [data[at] & 2 for at in flags] == [2 if s == f.start else 0
                                                   for s in range(f.num_states)]
        for at in flags:
            data[at] ^= 2
        assert deserialize(bytes(data)) == f

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
    """``BLFST2`` bytes of an automaton built by hand, unchecked.

    The ``BLFST1`` reference must report the same structural error on its
    own bytes of the automaton."""
    f = WordFst(start=0, finals=finals, arcs=state_arcs)
    data = serialize(f)
    assert str(outcome(reference_deserialize, reference_serialize(f))) == str(
        outcome(deserialize, data))
    return data


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
            [[("a", -1.0, 1), ("c", -1.0, 4)], [("z", -1.0, 2), ("b", -1.0, 3)], [], [], []],
            finals={2, 3, 4},
        )
        self.reject(data, "state 1: arcs not strictly sorted at 'b'")
        self.reject(data[:-1], "truncated automaton")
        self.reject(data + b"\x00", "trailing bytes")

    def test_earlier_violation_wins(self):
        unsorted = [("z", -1.0, 3), ("b", -1.0, 4)]
        infinite = [("c", math.inf, 5)]
        leaves = [[], [], []]
        self.reject(
            _hand_built([[("a", -1.0, 1), ("b", -1.0, 2)], unsorted, infinite] + leaves,
                        finals={3, 4, 5}),
            "state 1: arcs not strictly sorted at 'b'",
        )
        self.reject(
            _hand_built([[("a", -1.0, 1), ("b", -1.0, 2)], infinite, unsorted] + leaves,
                        finals={3, 4, 5}),
            "state 1: non-finite weight on 'c'",
        )
        # Within one arc the checks keep validate_fst's order.
        self.reject(
            _hand_built([[("a", -1.0, 1)], [("z", -1.0, 2), ("b", math.nan, 9)], []],
                        finals={2}),
            "state 1: arcs not strictly sorted at 'b'",
        )

    def test_dead_end_beats_a_later_arc_violation(self):
        self.reject(
            _hand_built([[("a", -1.0, 1), ("b", -1.0, 2)], [], [("z", -1.0, 3), ("c", -1.0, 4)],
                         [], []], finals={3, 4}),
            "state 1 is a non-final dead end",
        )

    def test_start_out_of_range_beats_arc_violations(self):
        data = bytearray(_hand_built([[("b", -1.0, 1), ("a", -1.0, 2)], [], []], finals={1, 2}))
        data[10:14] = (7).to_bytes(4, "little")  # the start, after magic and num_states
        self.reject(bytes(data), "start state 7 out of range")


class TestFinalColumn:
    """Final states are one flag byte per state, however the automaton was made."""

    ARCS = [[("a", -1.0, 1), ("b", -1.0, 2)], [], [("c", -1.0, 3)], []]

    def test_hand_built_from_columns_and_loaded_give_the_same_set(self):
        f = WordFst(start=0, finals={1, 3}, arcs=self.ARCS)
        assert f.final == b"\0\1\0\1"
        g = WordFst.from_columns(start=0, final=bytes([0, 1, 0, 1]), offsets=f.offsets,
                                 arc_words=f.arc_words, weights=f.weights, targets=f.targets)
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
        f = WordFst(start=0, finals={1, 3, n + 3}, arcs=self.ARCS)
        assert f.final == bytes([0, 1, 0, 1, 0, 0, 0, 1])
        assert _message(validate_fst, f) == f"state {n + 3} out of range"
        assert _message(reference_validate, f) == f"state {n + 3} out of range"
        # The stray final is not written: flags cover the states only.
        assert deserialize(serialize(f)).final == b"\0\1\0\1"

    def test_earlier_violation_beats_a_stray_final(self):
        f = WordFst(start=0, finals={3, 9}, arcs=self.ARCS)
        assert _message(validate_fst, f) == "state 1 is a non-final dead end"
        assert _message(reference_validate, f) == "state 1 is a non-final dead end"

    def test_negative_final_is_refused(self):
        with pytest.raises(ValueError, match=r"^state -1 out of range$"):
            WordFst(start=0, finals={-1, 1}, arcs=self.ARCS)

    def test_short_final_column_is_named(self):
        f = WordFst(start=0, finals={1, 3}, arcs=self.ARCS)
        g = WordFst.from_columns(start=0, final=f.final[:3], offsets=f.offsets,
                                 arc_words=f.arc_words, weights=f.weights, targets=f.targets)
        assert _message(validate_fst, g) == "3 final flags for 4 states"


class TestFormatPin:
    """Bytes of the seed-7 task's automata, pinned by sha256.

    The ``BLFST1`` values were recorded from the writer that kept one tuple
    per arc, now the reference writer; the ``BLFST2`` values from an
    element-by-element writer, before the columnar writer existed."""

    def automata(self):
        task = make_task(7)
        return (build_catalog_fst(task.all_bias_entries()),
                build_class_fst(task.class_corpus, min_count=10).fst)

    def test_seed7_bytes(self):
        catalog, classes = map(reference_serialize, self.automata())
        assert (len(catalog), hashlib.sha256(catalog).hexdigest()) == (
            23409, "72803fbdc7530ef8202d5dbdf93bdf188728f42097c428816ec425c539b2efe3")
        assert (len(classes), hashlib.sha256(classes).hexdigest()) == (
            527, "e15e69a9bc506a3bd59aa26c6907f6a5e297af4c9e2bf828a5f3b87538232583")
        assert reference_serialize(reference_deserialize(catalog)) == catalog
        assert reference_serialize(reference_deserialize(classes)) == classes

    def test_seed7_columnar_bytes(self):
        automata = self.automata()
        catalog, classes = map(serialize, automata)
        assert (len(catalog), hashlib.sha256(catalog).hexdigest()) == (
            20792, "902c90c7ef78fa3755428dccf4a042f9d67b027c617224ec5359b0b3a766c216")
        assert (len(classes), hashlib.sha256(classes).hexdigest()) == (
            484, "c16d967341f675ac8e1bb092113cab471157813cd2497a600e66cf7b2822ea28")
        assert (deserialize(catalog), deserialize(classes)) == automata
        assert serialize(deserialize(catalog)) == catalog
        assert serialize(deserialize(classes)) == classes


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

    On a 20k-entry catalog a built automaton keeps about 30 B per arc (its
    words are the catalog's strings) and a loaded one about 82 B (its own
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
