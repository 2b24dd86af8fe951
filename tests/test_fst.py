import gc
import hashlib
import math
import random
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslattice import fst as fst_module
from biaslattice.context import ContextualBiaser, build_class_fst, load_class_fst
from biaslattice.decode import SubwordBiaser, SynthOracle, WordBiaser, decode_corpus
from biaslattice.errors import InputFormatError
from biaslattice.fst import (
    CatalogEntry,
    CatalogError,
    WordFst,
    build_catalog_fst,
    deserialize,
    empty_fst,
    load_fst,
    read_catalog,
    save_fst,
    serialize,
    validate_fst,
)
from biaslattice.synthdata import make_task
from conftest import random_catalog
from oracles import (
    hand_fst,
    phrase_end,
    preorder_relabel,
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

    def test_blfst1_asks_for_a_rebuild(self, play_fst):
        with pytest.raises(InputFormatError, match="rebuild with `biaslattice build-fst`"):
            deserialize(reference_serialize(play_fst))

    def test_newline_in_word_rejected_by_writer(self):
        f = hand_fst(start=0, finals={1}, arcs=[[("a\nb", -1.0, 1)], []])
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
            start=0,
            finals=frozenset({1, 2}),
            arcs=((("b", -1.0, 1), ("a", -1.0, 2)), (), ()),
        )
        with pytest.raises(ValueError, match="sorted"):
            validate_fst(f)

    def test_unreachable_state_rejected(self):
        f = hand_fst(
            start=0,
            finals=frozenset({1, 2}),
            arcs=((("a", -1.0, 1),), (), ()),
        )
        with pytest.raises(ValueError, match="unreachable"):
            validate_fst(f)

    def test_dead_end_rejected(self):
        f = hand_fst(
            start=0,
            finals=frozenset(),
            arcs=((("a", -1.0, 1),), ()),
        )
        with pytest.raises(ValueError, match="dead end"):
            validate_fst(f)

    @pytest.mark.parametrize("column", ["weights", "targets"])
    @pytest.mark.parametrize("numbering", ["level order", "preorder"])
    def test_short_column_rejected(self, column, numbering):
        # Level order numbers the states after "a", "a b" and "c" 1, 3 and 2;
        # the preorder of earlier versions numbers them 1, 2 and 3.
        f = build_catalog_fst([CatalogEntry(("a", "b"), 1.0), CatalogEntry(("c",), 1.0)])
        if numbering == "preorder":
            f = preorder_relabel(f)
        columns = dict(weights=f.weights, targets=f.targets)
        columns[column] = columns[column][:-1]
        g = WordFst(start=f.start, final=f.final, offsets=f.offsets, arc_words=f.arc_words,
                    **columns)
        short = {"weights": "3 arc words, 2 weights and 3 targets",
                 "targets": "3 arc words, 3 weights and 2 targets"}[column]
        assert _message(validate_fst, g) == short


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
                ["word", "weight", "target", "drop arc", "swap words", "unfinal", "start",
                 "stray final"]))
            if kind == "word" and flat:
                rnd.choice(flat)[0] = data.draw(st.sampled_from(["", "a", "zz", "é"]))
            elif kind == "weight" and flat:
                rnd.choice(flat)[1] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            elif kind == "target" and flat:
                rnd.choice(flat)[2] = data.draw(st.integers(0, n + 1))
            elif kind == "drop arc" and any(arcs):
                state_arcs = rnd.choice([a for a in arcs if a])
                state_arcs.remove(rnd.choice(state_arcs))
            elif kind == "swap words" and any(len(a) > 1 for a in arcs):
                # Targets stay put, so a level-order automaton keeps its
                # numbering and only its words fall inside a state.
                a, b = rnd.sample(rnd.choice([a for a in arcs if len(a) > 1]), 2)
                a[0], b[0] = b[0], a[0]
            elif kind == "unfinal":
                finals.discard(rnd.choice(range(n)))
            elif kind == "start":
                start = data.draw(st.integers(0, n))
            else:
                finals.add(n + 3)
        g = hand_fst(start=start, finals=finals, arcs=arcs)
        assert _message(validate_fst, g) == _message(reference_validate, g)

    def test_cycle_behind_distinct_targets(self):
        """Start 0 and every state but 0 a target once, yet 2 -> 3 -> 2 is cut off."""
        f = hand_fst(
            start=0,
            finals={1, 4},
            arcs=[[("a", -1.0, 1)], [], [("a", -1.0, 3)], [("a", -1.0, 4), ("b", -1.0, 2)], []],
        )
        assert _message(validate_fst, f) == "3 states unreachable from start"
        assert _message(reference_validate, f) == "3 states unreachable from start"


class TestLevelOrder:
    """The builder numbers states level by level: the arc into state t is
    arc t - 1, so the check proves a built or loaded automaton sound without
    the state-by-state walk, which makes loading a 100k-entry automaton about
    2.5 times slower.  A builder change that breaks level order fails here."""

    @given(catalogs())
    @settings(max_examples=200, deadline=None)
    def test_built_and_loaded_automata_take_the_fast_path(self, entries):
        built = build_catalog_fst(entries)
        with mock.patch.object(fst_module, "_first_problem",
                               side_effect=AssertionError("state-by-state check")):
            validate_fst(built)
            loaded = deserialize(serialize(built))
        for f in built, loaded:
            assert f.targets.tolist() == list(range(1, f.num_states))


class TestPreorderFiles:
    """Versions before level-order numbering wrote their automata in
    preorder.  Such a file loads unchanged, through the state-by-state
    check, and decodes as its level-order twin does."""

    @given(catalogs())
    @settings(max_examples=100, deadline=None)
    def test_loads_equal_through_the_state_by_state_check(self, entries):
        old = preorder_relabel(build_catalog_fst(entries))
        with mock.patch.object(fst_module, "_first_problem",
                               wraps=fst_module._first_problem) as first_problem:
            assert deserialize(serialize(old)) == old
        level_order = old.targets.tolist() == list(range(1, old.num_states))
        assert first_problem.call_count == (not level_order)

    def test_decodes_as_its_level_order_twin(self, tmp_path):
        task = make_task(7, n_test=10)
        built = {name: build_catalog_fst(entries) for name, entries in (
            ("all", task.all_bias_entries()), ("@contactname", task.contacts),
            ("@devicename", task.devices), ("@appname", task.apps))}
        classes = build_class_fst(task.class_corpus, min_count=10)
        for i, f in enumerate([*built.values(), classes.fst]):
            save_fst(preorder_relabel(f), tmp_path / f"{i}.fst")
        loaded = {name: load_fst(tmp_path / f"{i}.fst") for i, name in enumerate(built)}
        old_classes = load_class_fst(tmp_path / f"{len(built)}.fst")
        assert loaded["all"] == preorder_relabel(built["all"]) != built["all"]
        assert old_classes.fst == preorder_relabel(classes.fst) != classes.fst

        def biasers(fsts, class_fst):
            bindings = {tag: f for tag, f in fsts.items() if tag.startswith("@")}
            return (WordBiaser(fsts["all"]), SubwordBiaser(fsts["all"]),
                    ContextualBiaser(class_fst, bindings))

        oracle = SynthOracle(task.vocab, task.refs_test, noise=0.3, seed=7,
                             noisy_words=task.noisy_words)
        for new, old in zip(biasers(built, classes), biasers(loaded, old_classes)):
            assert (decode_corpus(oracle, old, task.vocab, 2.5)
                    == decode_corpus(oracle, new, task.vocab, 2.5))


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
    f = hand_fst(start=0, finals=finals, arcs=state_arcs)
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
        f = hand_fst(start=0, finals={1, 3}, arcs=self.ARCS)
        assert f.final == b"\0\1\0\1"
        g = WordFst(start=0, final=bytes([0, 1, 0, 1]), offsets=f.offsets,
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
        f = hand_fst(start=0, finals={1, 3, n + 3}, arcs=self.ARCS)
        assert f.final == bytes([0, 1, 0, 1, 0, 0, 0, 1])
        assert _message(validate_fst, f) == f"state {n + 3} out of range"
        assert _message(reference_validate, f) == f"state {n + 3} out of range"
        # The stray final is not written: flags cover the states only.
        assert deserialize(serialize(f)).final == b"\0\1\0\1"

    def test_earlier_violation_beats_a_stray_final(self):
        f = hand_fst(start=0, finals={3, 9}, arcs=self.ARCS)
        assert _message(validate_fst, f) == "state 1 is a non-final dead end"
        assert _message(reference_validate, f) == "state 1 is a non-final dead end"

    def test_short_final_column_is_named(self):
        f = hand_fst(start=0, finals={1, 3}, arcs=self.ARCS)
        g = WordFst(start=0, final=f.final[:3], offsets=f.offsets,
                    arc_words=f.arc_words, weights=f.weights, targets=f.targets)
        assert _message(validate_fst, g) == "3 final flags for 4 states"

    def test_the_constructor_takes_only_columns(self):
        with pytest.raises(TypeError):
            WordFst(start=0, finals=(), arcs=((),))
        with pytest.raises(TypeError):
            WordFst(0, b"\0", array("I", [0, 0]), [], array("d"), array("I"))
        assert empty_fst() == WordFst(start=0, final=b"\0", offsets=array("I", [0, 0]),
                                      arc_words=[], weights=array("d"), targets=array("I"))
        validate_fst(empty_fst())


class TestFormatPin:
    """Bytes of the seed-7 task's automata, pinned by sha256.

    Each format pins (bytes, sha256) of the catalog and the class automaton
    as the builder numbers them, level by level, and then relabelled to the
    preorder of earlier versions.  The preorder values were recorded before
    level-order numbering: the ``BLFST1`` ones from the writer that kept one
    tuple per arc, now the reference writer, and the ``BLFST2`` ones from an
    element-by-element writer, before the columnar writer existed."""

    PINS = {
        "BLFST1": [
            (23409, "fc7435d45b98cacb445ae8ccdb6e7d2f37b461dbb16c67405bb755c459f41955"),
            (527, "78c6b9f18479fc27dd682c9b03ea693a5d1fc2df56135ab1238dcede9169fb65"),
            (23409, "72803fbdc7530ef8202d5dbdf93bdf188728f42097c428816ec425c539b2efe3"),
            (527, "e15e69a9bc506a3bd59aa26c6907f6a5e297af4c9e2bf828a5f3b87538232583"),
        ],
        "BLFST2": [
            (20792, "10eee60ae3de90d1cf02d35fbd9b1d0525602e128967f32cc2c51c9777a9214d"),
            (484, "a10146e96c404efea3fffa3805449ddcb5162bcd75b331210552040de2c0256a"),
            (20792, "902c90c7ef78fa3755428dccf4a042f9d67b027c617224ec5359b0b3a766c216"),
            (484, "c16d967341f675ac8e1bb092113cab471157813cd2497a600e66cf7b2822ea28"),
        ],
    }

    def automata(self):
        task = make_task(7)
        built = (build_catalog_fst(task.all_bias_entries()),
                 build_class_fst(task.class_corpus, min_count=10).fst)
        return [*built, *map(preorder_relabel, built)]

    def pinned(self, data: bytes):
        return len(data), hashlib.sha256(data).hexdigest()

    def test_seed7_bytes(self):
        files = list(map(reference_serialize, self.automata()))
        assert list(map(self.pinned, files)) == self.PINS["BLFST1"]
        for data in files:
            assert reference_serialize(reference_deserialize(data)) == data

    def test_seed7_columnar_bytes(self):
        automata = self.automata()
        files = list(map(serialize, automata))
        assert list(map(self.pinned, files)) == self.PINS["BLFST2"]
        assert list(map(deserialize, files)) == automata
        for data in files:
            assert serialize(deserialize(data)) == data


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
