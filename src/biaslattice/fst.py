"""Word-level weighted biasing automata built from personal phrase catalogs.

A catalog (contact names, device names, application names) compiles into a
trie-shaped automaton whose arcs are labelled with whole words.  Arcs leaving
a state are kept in strict lexicographic order so prefix lookups can use
binary search.  The start state acts as a zero-cost "phi" self-loop that
absorbs any word not listed on its outgoing arcs: a walk that misses there
pays nothing and stays put.

An automaton is stored as flat columns, the layout of OpenFst's ``ConstFst``
(Allauzen et al. 2007): the arcs of every state sit one after another in a
list of words and an ``array('d')`` of weights, and
``offsets[s]:offsets[s + 1]`` are the positions of state ``s``'s arcs.  A
position in the columns is an arc id.  No tuple or list exists per arc or
per state (the words are strings, which the cyclic garbage collector does
not track), so building or loading a large catalog leaves it almost nothing
to walk.  Final states are a column too: ``final`` holds one byte per state,
1 for a final state, as the ``BLFST3`` file's flag bytes hold them, so no
set of state numbers exists either.

States are numbered level by level, as LOUDS numbers a tree (Jacobson 1989;
Delpratt, Rahman and Raman 2006): the start 0, then every state one word
deep, then two, each level in sorted order.  The arc into state t is then
arc t - 1, so no column of next states exists: :meth:`WordFst.next_state`
derives it.  The builder lays out each level's columns with C-level passes
over the sorted phrases, with no node objects and no sort of the arcs by
state.  A built automaton depends on its phrases and weights alone, and
``CatalogEntry`` stores -0.0 as 0.0.  The ``BLFST3`` file holds the same
columns: writing it joins their bytes, and reading it copies them back into
arrays and splits one block of words.  One routine checks every automaton,
however its columns were made, with C-level loops over them and one set
test, that adjacent words fall out of order only where a state's arcs begin.

Automata are immutable after construction and safe to share across threads;
all mutation happens inside the builder and the reader.  The columns are a
list, arrays and bytes, shared rather than copied, so callers must not
change them either; they are the only way to read an automaton.  The one
derived structure, the band index, is built lazily on first use; threads
racing on it only compute the same value twice.
"""

from __future__ import annotations

import bisect
import math
import struct
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import and_, attrgetter, ge, gt, itemgetter, not_, or_, sub
from typing import Iterable, NoReturn

from .errors import InputFormatError, open_text, records

DEFAULT_WEIGHT = -1.0

_MAGIC = b"BLFST3"

# The score convention: of two biasing weights or totals, the stronger one.
# Every pick of a band's weight and of a tag race's total goes through this
# name.  It is ``min`` until ROADMAP item 2 flips it to ``max`` (decoding
# adds biasing scores, so higher is better there); that flip changes this
# line and the tests that pin the old picks.
strongest = min

# Block size of the band index: bands of more than 2 * BAND_BLOCK arcs are
# summarized from per-block summaries, in O(BAND_BLOCK + band/BAND_BLOCK).
BAND_BLOCK = 32


class CatalogError(InputFormatError, ValueError):
    """A phrase catalog violates the builder's preconditions."""


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One catalog phrase; ``weight`` is applied to every word arc of it.
    Errors blaming it name ``where``, the ``file:line`` it was read from."""

    phrase: tuple[str, ...]
    weight: float = DEFAULT_WEIGHT
    where: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.phrase:
            raise self.error("catalog phrase must contain at least one word")
        if any(w.split() != [w] for w in self.phrase):  # empty, or holds whitespace
            raise self.error(f"malformed catalog phrase: {self.phrase!r}")
        if not math.isfinite(self.weight):
            raise self.error(f"non-finite weight for phrase {self.phrase!r}")
        if not self.weight:  # -0.0 scores as 0.0, so it is stored as 0.0
            object.__setattr__(self, "weight", 0.0)

    @classmethod
    def from_text(cls, text: str, weight: float = DEFAULT_WEIGHT,
                  where: str | None = None) -> "CatalogEntry":
        """Lowercase and whitespace-split ``text`` into a phrase."""
        return cls(tuple(text.lower().split()), float(weight), where)

    def error(self, message: str) -> CatalogError:
        return CatalogError(f"{self.where}: {message}" if self.where else message)

    @property
    def text(self) -> str:
        return " ".join(self.phrase)


@dataclass(frozen=True, repr=False, kw_only=True)
class WordFst:
    """Trie-shaped weighted automaton over whole words, stored as columns.

    ``arc_words`` and ``weights`` hold every arc's input word and weight;
    state ``s`` owns positions ``offsets[s]:offsets[s + 1]``, in strict
    lexicographic order of their word (no duplicate words at one state).
    States are numbered level by level, so arc ``i`` leads to state
    ``i + 1``: :meth:`next_state` says so, and no column of next states
    exists.  ``final[s]`` is 1 if state ``s`` ends a phrase and 0 if not:
    one byte per state, and no per-state object.

    The constructor takes the five columns as keywords and keeps them without
    copying or checking them; :func:`validate_fst` checks them.
    """

    start: int
    final: bytes  # one byte per state, 1 for a final state
    offsets: array  # 'I', num_states + 1 entries
    arc_words: list[str]
    weights: array  # 'd'

    @cached_property
    def _band_index(self) -> tuple[array, array]:
        """(max word length, strongest weight) of each ``BAND_BLOCK`` arcs of the columns.

        Blocks are aligned to column positions, not to states; a band summary
        uses only the blocks that lie wholly inside its band.
        """
        b, words, weights = BAND_BLOCK, self.arc_words, self.weights
        starts = range(0, len(words), b)
        return (
            array("I", [max(map(len, words[i : i + b])) for i in starts]),
            array("d", [strongest(weights[i : i + b]) for i in starts]),
        )

    @property
    def num_states(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_arcs(self) -> int:
        return len(self.arc_words)

    @staticmethod
    def next_state(arc: int) -> int:
        """The state arc ``arc`` leads to: under level-order numbering, ``arc + 1``."""
        return arc + 1

    def arc_count(self, state: int) -> int:
        """The number of arcs leaving ``state``."""
        return self.offsets[state + 1] - self.offsets[state]

    def band_summary(self, lo: int, hi: int) -> tuple[int, float]:
        """``(longest word length, strongest weight)`` over column positions ``[lo, hi)``.

        The band must be non-empty.  Ties on the weight resolve to the first
        arc in positional order, as a left-to-right scan would.
        """
        words, weights = self.arc_words, self.weights
        if hi - lo <= 2 * BAND_BLOCK:
            return max(map(len, words[lo:hi])), strongest(weights[lo:hi])
        block_len, block_weight = self._band_index
        # Head slice up to the first block boundary, whole blocks, tail slice.
        b0 = -(-lo // BAND_BLOCK)
        b1 = hi // BAND_BLOCK
        head, tail = b0 * BAND_BLOCK, b1 * BAND_BLOCK
        return (
            max(chain(map(len, words[lo:head]), block_len[b0:b1], map(len, words[tail:hi]))),
            strongest(chain(weights[lo:head], block_weight[b0:b1], weights[tail:hi])),
        )

    def arc_id(self, state: int, word: str) -> int | None:
        """Column position of ``state``'s arc labelled ``word``, or None."""
        lo, hi = self.offsets[state], self.offsets[state + 1]
        words = self.arc_words
        i = bisect.bisect_left(words, word, lo, hi)
        return i if i < hi and words[i] == word else None


def build_catalog_fst(entries: Iterable[CatalogEntry]) -> WordFst:
    """Compile catalog entries into a prefix-sharing word automaton.

    Phrases sharing leading words share arcs, so their per-word weights must
    agree on the shared prefix.  Each phrase ends in a final state and the sum
    of arc weights along its path equals ``len(phrase) * entry.weight``.

    One sweep over the sorted phrases finds the words each shares with the
    previous one, as Daciuk et al. (2000) do before they minimize a trie; a
    phrase makes a state for each word past those.  States are numbered level
    by level, each level in sorted order, so the arc into state t is arc t - 1:
    C-level passes over the phrases lay out each level's columns, and no
    column of next states is needed.  Input order matters only to name a
    faulty entry.

    The automaton knows no vocabulary, so any word builds; decoding refuses a
    word holding its vocabulary's delimiter.  Raises CatalogError on an empty
    catalog, or where the sweep sees a phrase equal to the previous one or a
    shared arc weighed ``!=``; :func:`_first_fault` names the entry at fault.
    """
    entries = list(entries)
    if not entries:
        raise CatalogError("catalog is empty")
    ordered = sorted(entries, key=attrgetter("phrase"))
    phrases, weights = [e.phrase for e in ordered], [e.weight for e in ordered]
    # Sorted phrase j shares its first shared[j] words, and their states, with phrase j - 1.
    shared = [0] * len(phrases)
    for j, prev, phrase in zip(count(1), phrases, islice(phrases, 1, None)):
        if phrase[0] != prev[0]:
            continue  # then it shares no state with phrase j - 1
        k = 1
        while k < len(prev) and phrase[k] == prev[k]:
            k += 1
        if k == len(phrase) or weights[j] != weights[j - 1]:
            _first_fault(entries)
        shared[j] = k
    # Phrase j makes a depth-d state where shared[j] < d <= len(phrase j), and
    # the arc into state t, arc t - 1, takes the weight of phrase owners[t - 1].
    # ids, shares, lens and phrases keep the phrases at least d words long;
    # firsts[d] is the first depth-d state.
    ids, shares, lens = range(len(phrases)), shared, list(map(len, phrases))
    words, owners, final, offsets, firsts = [], array("I"), bytearray(1), array("I", [0]), [0, 1]
    for d in count(1):
        makes, longer = list(map(gt, repeat(d), shares)), list(map(gt, lens, repeat(d)))
        words += compress(map(itemgetter(d - 1), phrases), makes)
        owners.extend(compress(ids, makes))
        final.extend(compress(map(not_, longer), makes))
        firsts.append(firsts[d] + makes.count(True))
        # A state's arcs start past the depth-(d + 1) states of the phrases before its maker.
        below = map(and_, longer, map(ge, repeat(d), shares))
        offsets.extend(compress(accumulate(below, initial=firsts[d + 1] - 1), makes))
        if not any(longer):
            break
        ids, shares, lens, phrases = (
            list(compress(column, longer)) for column in (ids, shares, lens, phrases))
    offsets.append(firsts[-1] - 1)
    return WordFst(
        start=0, final=bytes(final), offsets=offsets, arc_words=words,
        weights=array("d", map(weights.__getitem__, owners)))


def _first_fault(entries: list[CatalogEntry]) -> NoReturn:
    """Raise the CatalogError of the first entry that repeats a phrase or reweighs an arc."""
    phrases: set[tuple[str, ...]] = set()
    paths: dict[tuple[str, ...], float] = {}
    for entry in entries:
        phrase, weight = entry.phrase, entry.weight
        if phrase in phrases:
            raise entry.error(f"duplicate catalog phrase: {entry.text!r}")
        phrases.add(phrase)
        for i, word in enumerate(phrase, 1):
            shared = paths.setdefault(phrase[:i], weight)
            if shared != weight:
                raise entry.error(
                    f"conflicting weights {shared} vs {weight} on shared "
                    f"prefix arc {word!r} (phrase {entry.text!r})"
                )
    raise AssertionError("the sorted sweep saw a catalog fault that the input-order scan did not")


def empty_fst() -> WordFst:
    """A single-state automaton accepting nothing (used for empty corpora)."""
    return WordFst(
        start=0, final=b"\0", offsets=array("I", [0, 0]),
        arc_words=[], weights=array("d"),
    )


def _check_columns(fst: WordFst) -> str | None:
    """The first structural problem of ``fst``, or None if it has none.

    C-level loops over whole columns prove an automaton sound.  Arc t - 1
    enters state t, and ``offsets[s] >= s`` puts each state's arcs past it,
    so every parent is numbered below its children and every state is
    reachable from the start 0 by induction.  Words are in order within each
    state if every position where a word is not greater than the one before
    it starts a state: one set test of those positions against the offsets,
    boxed once.  On a failure :func:`_first_problem` names the first one.
    """
    n, offsets, words, final = fst.num_states, fst.offsets.tolist(), fst.arc_words, fst.final
    sizes = list(map(sub, islice(offsets, 1, None), offsets))
    # Adjacent words may fall only where a state's arcs begin.
    falls = compress(range(1, len(words)), map(ge, words, islice(words, 1, None)))
    if (
        fst.start == 0 < n and len(words) == len(fst.weights) == n - 1
        and offsets[0] == 0 and offsets[n] == n - 1 and min(sizes) >= 0
        and all(map(ge, offsets, range(n))) and all(map(math.isfinite, fst.weights))
        and all(words) and not set(falls).difference(offsets)
        # Every state but the start has arcs or is final.
        and len(final) == n and all(map(or_, islice(final, 1, None), islice(sizes, 1, None)))
    ):
        return None
    return _first_problem(fst)


def _first_problem(fst: WordFst) -> str | None:
    """The first violation in state order, found one state at a time."""
    n, offsets, words, final = fst.num_states, fst.offsets, fst.arc_words, fst.final
    if len(words) != len(fst.weights):
        return f"{len(words)} arc words and {len(fst.weights)} weights"
    if len(final) < n:
        return f"{len(final)} final flags for {n} states"
    if offsets[0] != 0 or offsets[n] != len(words):
        return f"arc offsets run {offsets[0]}..{offsets[n]}, not 0..{len(words)}"
    for s in range(n):
        if offsets[s] > offsets[s + 1]:
            return f"state {s}: arc offsets decrease"
    if not 0 <= fst.start < n:
        return f"start state {fst.start} out of range"
    if fst.start:
        return f"start state {fst.start} is not state 0, the one no arc enters"
    for s in range(n):
        lo, hi = offsets[s], offsets[s + 1]
        prev = ""
        for i in range(lo, hi):
            word, weight = words[i], fst.weights[i]
            if not word:
                return f"state {s}: empty arc word"
            if word <= prev:
                return f"state {s}: arcs not strictly sorted at {word!r}"
            if not math.isfinite(weight):
                return f"state {s}: non-finite weight on {word!r}"
            if fst.next_state(i) >= n:
                return f"state {s}: next state {fst.next_state(i)} out of range"
            prev = word
        if lo == hi and not final[s] and s != fst.start:
            return f"state {s} is a non-final dead end"
    stray = final.find(1, n)
    if stray >= 0:
        return f"state {stray} out of range"
    # Below the first state s with offsets[s] < s, states 1..offsets[s] hang
    # off lower parents; no arc from those enters the states past them.
    s = next(compress(count(), map(gt, range(n), offsets)), None)
    return None if s is None else f"{n - 1 - offsets[s]} states unreachable from start"


def validate_fst(fst: WordFst) -> None:
    """Check structural invariants; raises ValueError on the first violation."""
    problem = _check_columns(fst)
    if problem:
        raise ValueError(problem)


# -- catalog files ----------------------------------------------------------
#
# UTF-8 text, one entry per line: ``phrase<TAB>weight``.  The weight is
# optional (default -1); lines starting with ``#`` and blank lines are
# ignored.  Phrases are lowercased and whitespace-split; a phrase listed
# twice is refused at its second line.


def read_catalog(lines: Iterable[str], *, source: str = "<catalog>") -> list[CatalogEntry]:
    entries: dict[tuple[str, ...], CatalogEntry] = {}
    for where, line in records(lines, source):
        phrase_part, sep, weight_part = line.rpartition("\t")
        if not sep:
            phrase_part, weight = line, DEFAULT_WEIGHT
        else:
            try:
                weight = float(weight_part)
            except ValueError:
                raise InputFormatError(f"{where}: bad weight {weight_part.strip()!r}") from None
        if not phrase_part.strip():
            raise InputFormatError(f"{where}: empty phrase")
        entry = CatalogEntry.from_text(phrase_part, weight, where)
        if entries.setdefault(entry.phrase, entry) is not entry:
            raise entry.error(f"duplicate catalog phrase: {entry.text!r}")
    if not entries:
        raise InputFormatError(f"{source}: no catalog entries found")
    return list(entries.values())


def load_catalog(path) -> list[CatalogEntry]:
    with open_text(path) as f:
        return read_catalog(f, source=str(path))


# -- binary serialization ----------------------------------------------------
#
# Versioned columnar layout, magic ``BLFST3``, little-endian throughout:
#
#   magic | u32 num_states | u32 start | u32 num_arcs |
#   u8 final[num_states] (0 or 1) |
#   u32 offsets[num_states + 1] | f64 weights[num_arcs] |
#   u32 len | UTF-8 arc words joined by "\n"
#
# The header fixes every length but the word blob's.  States are numbered
# level by level, so arc i enters state i + 1 and no next states are
# stored.  Files of the earlier formats, which stored them, are refused with
# a request to rebuild.

_HEADER = struct.Struct("<6sIII")  # magic, num_states, start, num_arcs
_U32 = struct.Struct("<I")
_RETIRED = (b"BLFST1", b"BLFST2")


def _little_endian(column: array) -> array:
    """``column`` on a little-endian host; elsewhere a byte-swapped copy."""
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column


def serialize(fst: WordFst) -> bytes:
    """``BLFST3`` bytes of ``fst``; raises ValueError for a word holding a newline."""
    blob = "\n".join(fst.arc_words).encode("utf-8")
    if blob.count(b"\n") != max(fst.num_arcs - 1, 0):
        word = next(w for w in fst.arc_words if "\n" in w)
        raise ValueError(f"arc word {word!r} contains a newline")
    final = memoryview(fst.final)[: fst.num_states]
    columns = (_little_endian(c).tobytes() for c in (fst.offsets, fst.weights))
    header = _HEADER.pack(_MAGIC, fst.num_states, fst.start, fst.num_arcs)
    return b"".join([header, final, *columns, _U32.pack(len(blob)), blob])


def deserialize(data: bytes) -> WordFst:
    """Parse a ``BLFST3`` buffer: one length check, array copies, one column check.

    Byte-level errors name their offset and come first: bad magic, then
    truncation or trailing bytes, then unknown state flags, invalid UTF-8
    and a word count that differs from the header's arc count.  Structural
    errors are :func:`validate_fst`'s and name the first offending state.
    """
    magic = data[: len(_MAGIC)]
    if magic != _MAGIC:
        if magic in _RETIRED:
            raise InputFormatError(f"{magic.decode()} automata are no longer read; "
                                   "rebuild with `biaslattice build-fst`")
        raise InputFormatError("bad magic: not a serialized biasing automaton")
    end, need = len(data), _HEADER.size
    if end >= need:
        _, n, start, num_arcs = _HEADER.unpack_from(data)
        blob_at = need + n + 4 * (n + 1) + 8 * num_arcs
        need = blob_at + 4
        if end >= need:
            need += _U32.unpack_from(data, blob_at)[0]
    if end < need:
        raise InputFormatError(f"truncated automaton: ends at offset {end}, needed {need} bytes")
    if end > need:
        raise InputFormatError(f"{end - need} trailing bytes at offset {need}")
    at = _HEADER.size
    final = bytes(data[at : at + n])
    if final.translate(None, b"\0\1"):
        s = next(s for s, f in enumerate(final) if f > 1)
        raise InputFormatError(f"unknown state flags {final[s]:#x} at offset {at + s}")
    at += n
    columns = []
    for typecode, count in ("I", n + 1), ("d", num_arcs):
        column = array(typecode)
        column.frombytes(memoryview(data)[at : at + column.itemsize * count])
        columns.append(_little_endian(column))
        at += column.itemsize * count
    offsets, weights = columns
    try:
        text = data[blob_at + 4 :].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"invalid UTF-8 at offset {blob_at + 4 + exc.start}") from None
    words = text.split("\n") if text or num_arcs else []
    if len(words) != num_arcs:
        raise InputFormatError(f"{len(words)} arc words for {num_arcs} arcs")
    fst = WordFst(start=start, final=final, offsets=offsets, arc_words=words, weights=weights)
    problem = _check_columns(fst)
    if problem:
        raise InputFormatError(f"malformed automaton: {problem}")
    return fst


def save_fst(fst: WordFst, path) -> None:
    with open(path, "wb") as f:
        f.write(serialize(fst))


def load_fst(path) -> WordFst:
    """Read a serialized automaton; an InputFormatError names ``path``."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return deserialize(data)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
