"""Word-level weighted biasing automata built from personal phrase catalogs.

A catalog (contact names, device names, application names) compiles into a
trie-shaped automaton whose arcs are labelled with whole words.  Arcs leaving
a state are kept in strict lexicographic order so prefix lookups can use
binary search.  The start state acts as a zero-cost "phi" self-loop that
absorbs any word not listed on its outgoing arcs: a walk that misses there
pays nothing and stays put.

An automaton is stored as flat columns, the layout of OpenFst's ``ConstFst``
(Allauzen et al. 2007): the arcs of every state sit one after another in a
list of words, an ``array('d')`` of weights and an ``array('I')`` of next
states, and ``offsets[s]:offsets[s + 1]`` are the positions of state ``s``'s
arcs.  A position in the columns is an arc id.  No tuple or list exists per
arc or per state (the words are strings, which the cyclic garbage collector
does not track), so building or loading a large catalog leaves it almost
nothing to walk.  Final states are a column too: ``final`` holds one byte
per state, 1 for a final state, as the ``BLFST2`` file's flag bytes hold
them, so no set of state numbers exists either.

The builder maps every word path of the catalog to its arc weight and
numbers the states by sorting those paths, which is the preorder walk of the
trie; no node objects are made.  The ``BLFST2`` file holds the same columns:
writing it joins their bytes, and reading it copies them back into arrays
and splits one block of words.  One routine checks every automaton, loaded
or built by hand, with C-level loops over the columns.

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
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import ge, gt, not_, sub
from typing import Iterable

from .errors import InputFormatError
from .wordpiece import DEFAULT_DELIMITER

DEFAULT_WEIGHT = -1.0

_MAGIC = b"BLFST2"

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


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog phrase; ``weight`` is applied to every word arc of it."""

    phrase: tuple[str, ...]
    weight: float = DEFAULT_WEIGHT

    def __post_init__(self):
        if not self.phrase:
            raise CatalogError("catalog phrase must contain at least one word")
        if any(w.split() != [w] for w in self.phrase):  # empty, or holds whitespace
            raise CatalogError(f"malformed catalog phrase: {self.phrase!r}")
        if not math.isfinite(self.weight):
            raise CatalogError(f"non-finite weight for phrase {self.phrase!r}")

    @classmethod
    def from_text(cls, text: str, weight: float = DEFAULT_WEIGHT) -> "CatalogEntry":
        """Lowercase and whitespace-split ``text`` into a phrase."""
        return cls(tuple(text.lower().split()), float(weight))

    @property
    def text(self) -> str:
        return " ".join(self.phrase)


@dataclass(frozen=True, init=False, repr=False)
class WordFst:
    """Trie-shaped weighted automaton over whole words, stored as columns.

    ``arc_words``, ``weights`` and ``targets`` hold every arc's input word,
    weight and next state; state ``s`` owns positions
    ``offsets[s]:offsets[s + 1]``, in strict lexicographic order of their
    word (no duplicate words at one state).  ``final[s]`` is 1 if state ``s``
    ends a phrase and 0 if not: one byte per state, and no per-state object.

    The constructor takes per-state ``(word, weight, next state)`` lists and
    the final states, for automata built by hand; :meth:`from_columns` wraps
    ready columns.
    """

    start: int
    # One byte per state, 1 for a final state.  A final state past the last
    # state, in an automaton built by hand, lengthens the column so that
    # validate_fst can name it.
    final: bytes
    offsets: array  # 'I', num_states + 1 entries
    arc_words: list[str]
    weights: array  # 'd'
    targets: array  # 'I'

    def __init__(
        self,
        *,
        start: int,
        finals: Iterable[int],
        arcs: Iterable[Iterable[tuple[str, float, int]]],
    ):
        arc_words, weights, targets, offsets = [], array("d"), array("I"), array("I", [0])
        for state_arcs in arcs:
            for word, weight, nextstate in state_arcs:
                arc_words.append(word)
                weights.append(weight)
                targets.append(nextstate)
            offsets.append(len(arc_words))
        final = bytearray(len(offsets) - 1)
        for s in finals:
            if s < 0:
                raise ValueError(f"state {s} out of range")
            if s >= len(final):
                final.extend(bytes(s + 1 - len(final)))
            final[s] = 1
        self._assign(start, bytes(final), offsets, arc_words, weights, targets)

    @classmethod
    def from_columns(
        cls,
        *,
        start: int,
        final: bytes,
        offsets: array,
        arc_words: list[str],
        weights: array,
        targets: array,
    ) -> "WordFst":
        """An automaton over the given columns, which it keeps without copying."""
        fst = cls.__new__(cls)
        fst._assign(start, final, offsets, arc_words, weights, targets)
        return fst

    def _assign(self, start, final, offsets, arc_words, weights, targets):
        # Past the frozen dataclass's __setattr__, once, at construction.
        self.__dict__.update(
            start=start, final=final,
            offsets=offsets, arc_words=arc_words, weights=weights, targets=targets,
        )

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


def build_catalog_fst(
    entries: Iterable[CatalogEntry], *, delimiter: str = DEFAULT_DELIMITER
) -> WordFst:
    """Compile catalog entries into a prefix-sharing word automaton.

    Phrases sharing leading words share arcs, so their per-word weights must
    agree on the shared prefix.  Each phrase ends in a final state and the sum
    of arc weights along its path equals ``len(phrase) * entry.weight``.

    One pass over the catalog maps every word path ``phrase[:i]`` to the
    weight of its last arc, in input order, so the checks below fire on the
    first offending entry.  States are numbered in the order of the sorted
    paths, after the start state (the empty path): sorted word tuples list
    each path before its extensions and its later siblings, which is the
    preorder walk of the trie over sorted edges.  Every state but the start
    is the target of exactly one arc, labelled with its path's last word, so
    one more pass records each state's parent, and a stable sort of the
    states on their parent lays the arcs out state by state, each state's
    arcs in word order.

    Raises CatalogError on an empty catalog, duplicate phrases, words
    containing the subword delimiter, or conflicting weights on a shared
    prefix arc.
    """
    entries = list(entries)
    if not entries:
        raise CatalogError("catalog is empty")
    phrases: set[tuple[str, ...]] = set()
    paths: dict[tuple[str, ...], float] = {}
    for entry in entries:
        phrase, weight = entry.phrase, entry.weight
        if phrase in phrases:
            raise CatalogError(f"duplicate catalog phrase: {entry.text!r}")
        phrases.add(phrase)
        for i, word in enumerate(phrase, 1):
            if delimiter in word:
                raise CatalogError(
                    f"word {word!r} contains the subword delimiter {delimiter!r}"
                )
            shared = paths.setdefault(phrase[:i], weight)
            if shared != weight:
                raise CatalogError(
                    f"conflicting weights {shared} vs {weight} on shared "
                    f"prefix arc {word!r} (phrase {entry.text!r})"
                )

    # State s is the path keys[s]; the start state is the empty path.
    keys = [()]
    keys += sorted(paths)
    n = len(keys)
    parents = array("I", [0]) * n
    degrees = array("I", [0]) * n
    final = bytearray(n)
    # The states along the current path; in preorder a path's parent is the
    # latest state one word shorter.
    stack = [0]
    for state, path in enumerate(islice(keys, 1, None), 1):
        del stack[len(path):]
        parent = stack[-1]
        parents[state] = parent
        degrees[parent] += 1
        stack.append(state)
        if path in phrases:
            final[state] = 1
    targets = array("I", sorted(range(1, n), key=parents.__getitem__))
    return WordFst.from_columns(
        start=0,
        final=bytes(final),
        offsets=array("I", accumulate(degrees, initial=0)),
        arc_words=[keys[t][-1] for t in targets],
        weights=array("d", map(paths.__getitem__, map(keys.__getitem__, targets))),
        targets=targets,
    )


def empty_fst() -> WordFst:
    """A single-state automaton accepting nothing (used for empty corpora)."""
    return WordFst(start=0, finals=frozenset(), arcs=((),))


def _count_reachable(start: int, offsets: array, targets: array) -> int:
    """The number of states reachable from ``start`` (next states in range)."""
    seen = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        new = set(targets[offsets[s] : offsets[s + 1]]) - seen
        seen |= new
        frontier += new
    return len(seen)


def _marks(positions: Iterable[int], size: int) -> bytearray:
    """``size`` bytes, 1 at each of ``positions`` (all in range), else 0."""
    marks = bytearray(size)
    deque(map(marks.__setitem__, positions, repeat(1)), maxlen=0)
    return marks


def _check_columns(fst: WordFst) -> str | None:
    """The first structural problem of ``fst``, or None if it has none.

    The normal path proves soundness with C-level loops over whole columns,
    for automata numbered as the builder numbers them, and builds no set:
    positions are marked in byte columns instead.  Every state is reachable
    when the start is 0, every arc points to a higher state and every state
    but the start is a target, by induction on the state number.  Any
    failure, or any other numbering, falls to :func:`_first_problem`.
    """
    n, start, final = fst.num_states, fst.start, fst.final
    offsets, words, targets = fst.offsets, fst.arc_words, fst.targets
    sizes = list(map(sub, islice(offsets, 1, None), offsets))
    # Adjacent words may fall only where a state's arcs begin.
    falls = compress(range(1, len(words)), map(ge, words, islice(words, 1, None)))
    sources = chain.from_iterable(map(repeat, range(n), sizes))
    dead_ends = compress(range(1, n), map(not_, islice(sizes, 1, None)))
    if (
        offsets[0] == 0 and offsets[n] == len(words) and min(sizes, default=0) >= 0
        and start == 0 < n
        and all(words) and all(map(_marks(offsets, len(words) + 1).__getitem__, falls))
        and all(map(math.isfinite, fst.weights))
        and max(targets, default=0) < n
        and len(final) == n and all(map(final.__getitem__, dead_ends))
        and all(map(gt, targets, sources)) and _marks(targets, n).count(1, 1) == n - 1
    ):
        return None
    return _first_problem(fst)


def _first_problem(fst: WordFst) -> str | None:
    """The first violation in state order, found one state at a time."""
    n, offsets, words, final = fst.num_states, fst.offsets, fst.arc_words, fst.final
    if len(final) < n:
        return f"{len(final)} final flags for {n} states"
    if offsets[0] != 0 or offsets[n] != len(words):
        return f"arc offsets run {offsets[0]}..{offsets[n]}, not 0..{len(words)}"
    for s in range(n):
        if offsets[s] > offsets[s + 1]:
            return f"state {s}: arc offsets decrease"
    if not 0 <= fst.start < n:
        return f"start state {fst.start} out of range"
    for s in range(n):
        lo, hi = offsets[s], offsets[s + 1]
        prev = ""
        for i in range(lo, hi):
            word, weight, nextstate = words[i], fst.weights[i], fst.targets[i]
            if not word:
                return f"state {s}: empty arc word"
            if word <= prev:
                return f"state {s}: arcs not strictly sorted at {word!r}"
            if not math.isfinite(weight):
                return f"state {s}: non-finite weight on {word!r}"
            if nextstate >= n:
                return f"state {s}: next state {nextstate} out of range"
            prev = word
        if lo == hi and not final[s] and s != fst.start:
            return f"state {s} is a non-final dead end"
    stray = final.find(1, n)
    if stray >= 0:
        return f"state {stray} out of range"
    unreachable = n - _count_reachable(fst.start, offsets, fst.targets)
    return f"{unreachable} states unreachable from start" if unreachable else None


def validate_fst(fst: WordFst) -> None:
    """Check structural invariants; raises ValueError on the first violation."""
    problem = _check_columns(fst)
    if problem:
        raise ValueError(problem)


# -- catalog files ----------------------------------------------------------
#
# UTF-8 text, one entry per line: ``phrase<TAB>weight``.  The weight is
# optional (default -1); lines starting with ``#`` and blank lines are
# ignored.  Phrases are lowercased and whitespace-split.


def read_catalog(lines: Iterable[str], *, source: str = "<catalog>") -> list[CatalogEntry]:
    entries = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        phrase_part, sep, weight_part = line.rpartition("\t")
        if not sep:
            phrase_part, weight = line, DEFAULT_WEIGHT
        else:
            try:
                weight = float(weight_part)
            except ValueError:
                raise InputFormatError(
                    f"{source}:{lineno}: bad weight {weight_part.strip()!r}"
                ) from None
        if not phrase_part.strip():
            raise InputFormatError(f"{source}:{lineno}: empty phrase")
        try:
            entries.append(CatalogEntry.from_text(phrase_part, weight))
        except CatalogError as exc:
            raise InputFormatError(f"{source}:{lineno}: {exc}") from None
    if not entries:
        raise InputFormatError(f"{source}: no catalog entries found")
    return entries


def load_catalog(path) -> list[CatalogEntry]:
    with open(path, encoding="utf-8") as f:
        return read_catalog(f, source=str(path))


# -- binary serialization ----------------------------------------------------
#
# Versioned columnar layout, magic ``BLFST2``, little-endian throughout:
#
#   magic | u32 num_states | u32 start | u32 num_arcs |
#   u8 flags[num_states] (bit0 final, bit1 phi) |
#   u32 offsets[num_states + 1] | u32 targets[num_arcs] | f64 weights[num_arcs] |
#   u32 len | UTF-8 arc words joined by "\n"
#
# The header fixes every length but the word blob's.  Bit 1 marks the
# start state's any-word self-loop: the writer sets it on the start state,
# and the reader accepts it on any state and ignores it, since the walk
# treats the start state as the phi state in any case.  ``BLFST1``, which
# interleaved each arc's word, weight and target, is no longer read.

_HEADER = struct.Struct("<6sIII")  # magic, num_states, start, num_arcs
_U32 = struct.Struct("<I")
_FINAL_BIT = bytes(b & 1 for b in range(256))


def _little_endian(column: array) -> array:
    """``column`` on a little-endian host; elsewhere a byte-swapped copy."""
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column


def serialize(fst: WordFst) -> bytes:
    """``BLFST2`` bytes of ``fst``; raises ValueError for a word holding a newline."""
    blob = "\n".join(fst.arc_words).encode("utf-8")
    if blob.count(b"\n") != max(fst.num_arcs - 1, 0):
        word = next(w for w in fst.arc_words if "\n" in w)
        raise ValueError(f"arc word {word!r} contains a newline")
    flags = bytearray(memoryview(fst.final)[: fst.num_states])
    flags[fst.start] |= 2
    columns = (_little_endian(c).tobytes() for c in (fst.offsets, fst.targets, fst.weights))
    header = _HEADER.pack(_MAGIC, fst.num_states, fst.start, fst.num_arcs)
    return b"".join([header, flags, *columns, _U32.pack(len(blob)), blob])


def deserialize(data: bytes) -> WordFst:
    """Parse a ``BLFST2`` buffer: one length check, array copies, one column check.

    Byte-level errors name their offset and come first: bad magic, then
    truncation or trailing bytes, then unknown state flags, invalid UTF-8
    and a word count that differs from the header's arc count.  Structural
    errors are :func:`validate_fst`'s and name the first offending state.
    """
    if data[: len(_MAGIC)] != _MAGIC:
        if data[: len(_MAGIC)] == b"BLFST1":
            raise InputFormatError(
                "BLFST1 automata are no longer read; rebuild with `biaslattice build-fst`"
            )
        raise InputFormatError("bad magic: not a serialized biasing automaton")
    end, need = len(data), _HEADER.size
    if end >= need:
        _, n, start, num_arcs = _HEADER.unpack_from(data)
        blob_at = need + n + 4 * (n + 1 + num_arcs) + 8 * num_arcs
        need = blob_at + 4
        if end >= need:
            need += _U32.unpack_from(data, blob_at)[0]
    if end < need:
        raise InputFormatError(f"truncated automaton: ends at offset {end}, needed {need} bytes")
    if end > need:
        raise InputFormatError(f"{end - need} trailing bytes at offset {need}")
    at = _HEADER.size
    flags = data[at : at + n]
    if flags.translate(None, b"\0\1\2\3"):
        s = next(s for s, f in enumerate(flags) if f > 3)
        raise InputFormatError(f"unknown state flags {flags[s]:#x} at offset {at + s}")
    at += n
    columns = []
    for typecode, count in ("I", n + 1), ("I", num_arcs), ("d", num_arcs):
        column = array(typecode)
        column.frombytes(memoryview(data)[at : at + column.itemsize * count])
        columns.append(_little_endian(column))
        at += column.itemsize * count
    offsets, targets, weights = columns
    try:
        text = data[blob_at + 4 :].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"invalid UTF-8 at offset {blob_at + 4 + exc.start}") from None
    words = text.split("\n") if text or num_arcs else []
    if len(words) != num_arcs:
        raise InputFormatError(f"{len(words)} arc words for {num_arcs} arcs")
    fst = WordFst.from_columns(
        start=start,
        final=flags.translate(_FINAL_BIT),
        offsets=offsets, arc_words=words, weights=weights, targets=targets,
    )
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
