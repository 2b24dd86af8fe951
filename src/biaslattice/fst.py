"""Word-level weighted biasing automata built from personal phrase catalogs.

A catalog (contact names, device names, application names) compiles into a
trie-shaped automaton whose arcs are labelled with whole words.  Arcs leaving
a state are kept in strict lexicographic order so prefix lookups can use
binary search.  The start state carries a zero-cost "phi" self-loop that
absorbs any word not listed on its outgoing arcs.

An automaton is stored as flat columns, the layout of OpenFst's ``ConstFst``
(Allauzen et al. 2007): the arcs of every state sit one after another in a
list of words, an ``array('d')`` of weights and an ``array('I')`` of next
states, and ``offsets[s]:offsets[s + 1]`` are the positions of state ``s``'s
arcs.  A position in the columns is an arc id.  No tuple or list exists per
arc or per state (the words are strings, which the cyclic garbage collector
does not track), so building or loading a large catalog leaves it almost
nothing to walk.

The builder maps every word path of the catalog to its arc weight and
numbers the states by sorting those paths, which is the preorder walk of the
trie; no node objects are made.  The ``BLFST1`` reader is one loop over the
buffer with precompiled ``struct`` unpacks and explicit bounds checks, which
appends each arc to the columns and checks it as it goes.

Automata are immutable after construction and safe to share across threads;
all mutation happens inside the builder and the reader.  The columns are a
list and arrays, shared rather than copied, so callers must not change them
either.  ``arcs[s]`` and ``words[s]`` are
views that slice the columns on each access.  The one derived structure,
the band index, is built lazily on first use; threads racing on it only
compute the same value twice.
"""

from __future__ import annotations

import bisect
import math
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, NamedTuple

from .errors import InputFormatError
from .wordpiece import DEFAULT_DELIMITER

DEFAULT_WEIGHT = -1.0

_MAGIC = b"BLFST1"

# Block size of the band index: bands of more than 2 * BAND_BLOCK arcs are
# summarized from per-block summaries, in O(BAND_BLOCK + band/BAND_BLOCK).
BAND_BLOCK = 32


class CatalogError(InputFormatError, ValueError):
    """A phrase catalog violates the builder's preconditions."""


class Arc(NamedTuple):
    word: str
    weight: float
    nextstate: int


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog phrase; ``weight`` is applied to every word arc of it."""

    phrase: tuple[str, ...]
    weight: float = DEFAULT_WEIGHT

    def __post_init__(self):
        if not self.phrase:
            raise CatalogError("catalog phrase must contain at least one word")
        if any(not w or w != w.strip() or " " in w for w in self.phrase):
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


class _PerState:
    """``view[s]`` slices state ``s``'s arcs out of an automaton's columns."""

    __slots__ = ("_fst", "_get")

    def __init__(self, fst: "WordFst", get):
        self._fst = fst
        self._get = get

    def __len__(self) -> int:
        return self._fst.num_states

    def __getitem__(self, state: int):
        offsets = self._fst.offsets
        state = range(len(offsets) - 1)[state]
        return self._get(self._fst, offsets[state], offsets[state + 1])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _arc_slice(fst: "WordFst", lo: int, hi: int) -> tuple[Arc, ...]:
    return tuple(map(Arc, fst.arc_words[lo:hi], fst.weights[lo:hi], fst.targets[lo:hi]))


def _word_slice(fst: "WordFst", lo: int, hi: int) -> list[str]:
    return fst.arc_words[lo:hi]


@dataclass(frozen=True, init=False, repr=False)
class WordFst:
    """Trie-shaped weighted automaton over whole words, stored as columns.

    ``arc_words``, ``weights`` and ``targets`` hold every arc's input word,
    weight and next state; state ``s`` owns positions
    ``offsets[s]:offsets[s + 1]``, in strict lexicographic order of their
    word (no duplicate words at one state).  ``finals`` mark phrase ends;
    ``phi_states`` mark states carrying the zero-cost any-word self-loop (the
    start state, by construction).

    ``arcs[s]`` (a tuple of :class:`Arc`) and ``words[s]`` (a list of words)
    are per-state views, sliced from the columns on each access; hot paths
    read the columns directly.  The constructor takes per-state arc lists,
    for automata built by hand; :meth:`from_columns` wraps ready columns.
    """

    start: int
    finals: frozenset[int]
    phi_states: frozenset[int]
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
        phi_states: Iterable[int],
    ):
        arc_words, weights, targets, offsets = [], array("d"), array("I"), array("I", [0])
        for state_arcs in arcs:
            for word, weight, nextstate in state_arcs:
                arc_words.append(word)
                weights.append(weight)
                targets.append(nextstate)
            offsets.append(len(arc_words))
        self._assign(start, finals, phi_states, offsets, arc_words, weights, targets)

    @classmethod
    def from_columns(
        cls,
        *,
        start: int,
        finals: Iterable[int],
        phi_states: Iterable[int],
        offsets: array,
        arc_words: list[str],
        weights: array,
        targets: array,
    ) -> "WordFst":
        """An automaton over the given columns, which it keeps without copying."""
        fst = cls.__new__(cls)
        fst._assign(start, finals, phi_states, offsets, arc_words, weights, targets)
        return fst

    def _assign(self, start, finals, phi_states, offsets, arc_words, weights, targets):
        # Past the frozen dataclass's __setattr__, once, at construction.
        self.__dict__.update(
            start=start, finals=frozenset(finals), phi_states=frozenset(phi_states),
            offsets=offsets, arc_words=arc_words, weights=weights, targets=targets,
        )

    def __repr__(self) -> str:
        return (
            f"WordFst(start={self.start}, finals={sorted(self.finals)}, "
            f"arcs={list(self.arcs)}, phi_states={sorted(self.phi_states)})"
        )

    @property
    def arcs(self) -> _PerState:
        """``arcs[s]``: the arcs of state ``s`` as a tuple of :class:`Arc`."""
        return _PerState(self, _arc_slice)

    @property
    def words(self) -> _PerState:
        """``words[s]``: the sorted input words of state ``s`` (for bisect)."""
        return _PerState(self, _word_slice)

    @cached_property
    def _band_index(self) -> tuple[array, array]:
        """(max word length, min weight) of each ``BAND_BLOCK`` arcs of the columns.

        Blocks are aligned to column positions, not to states; a band summary
        uses only the blocks that lie wholly inside its band.
        """
        b, words, weights = BAND_BLOCK, self.arc_words, self.weights
        starts = range(0, len(words), b)
        return (
            array("I", [max(map(len, words[i : i + b])) for i in starts]),
            array("d", [min(weights[i : i + b]) for i in starts]),
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

    def band_summary(self, state: int, lo: int, hi: int) -> tuple[int, float]:
        """``(longest word length, minimum weight)`` over arcs ``[lo, hi)`` of ``state``.

        The band must be non-empty.  Ties on the weight resolve to the first
        arc in positional order, as a left-to-right scan would.
        """
        base = self.offsets[state]
        lo += base
        hi += base
        words, weights = self.arc_words, self.weights
        if hi - lo <= 2 * BAND_BLOCK:
            return max(map(len, words[lo:hi])), min(weights[lo:hi])
        block_len, block_weight = self._band_index
        # Head slice up to the first block boundary, whole blocks, tail slice.
        b0 = -(-lo // BAND_BLOCK)
        b1 = hi // BAND_BLOCK
        head, tail = b0 * BAND_BLOCK, b1 * BAND_BLOCK
        return (
            max(chain(map(len, words[lo:head]), block_len[b0:b1], map(len, words[tail:hi]))),
            min(chain(weights[lo:head], block_weight[b0:b1], weights[tail:hi])),
        )

    def arc(self, i: int) -> Arc:
        """The arc at column position ``i``."""
        return Arc(self.arc_words[i], self.weights[i], self.targets[i])

    def arc_id(self, state: int, word: str) -> int | None:
        """Column position of ``state``'s arc labelled ``word``, or None."""
        lo, hi = self.offsets[state], self.offsets[state + 1]
        words = self.arc_words
        i = bisect.bisect_left(words, word, lo, hi)
        return i if i < hi and words[i] == word else None

    def find_arc(self, state: int, word: str) -> Arc | None:
        """Exact-match lookup of ``word`` among the arcs of ``state``."""
        i = self.arc_id(state, word)
        return None if i is None else self.arc(i)

    def phrase_path(self, phrase: Iterable[str]) -> tuple[int, float] | None:
        """Follow whole-word arcs from the start state.

        Returns ``(end_state, summed_weight)``, or None if some word has no
        arc along the way.
        """
        state = self.start
        total = 0.0
        for word in phrase:
            i = self.arc_id(state, word)
            if i is None:
                return None
            total += self.weights[i]
            state = self.targets[i]
        return state, total

    def iter_phrases(self):
        """Yield ``(phrase_words, end_state)`` for every path ending final."""
        offsets, arc_words, targets = self.offsets, self.arc_words, self.targets
        stack = [(self.start, ())]
        while stack:
            state, words = stack.pop()
            if state in self.finals and words:
                yield words, state
            for i in reversed(range(offsets[state], offsets[state + 1])):
                stack.append((targets[i], words + (arc_words[i],)))


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

    items = sorted(paths.items())
    n = len(items) + 1
    parents = [0] * n
    degrees = [0] * n
    finals = []
    # The states along the current path; in preorder a path's parent is the
    # latest state one word shorter.
    stack = [0]
    for state, (path, _) in enumerate(items, 1):
        del stack[len(path):]
        parent = stack[-1]
        parents[state] = parent
        degrees[parent] += 1
        stack.append(state)
        if path in phrases:
            finals.append(state)
    targets = array("I", sorted(range(1, n), key=parents.__getitem__))
    return WordFst.from_columns(
        start=0,
        finals=finals,
        phi_states=(0,),
        offsets=array("I", accumulate(degrees, initial=0)),
        arc_words=[items[t - 1][0][-1] for t in targets],
        weights=array("d", [items[t - 1][1] for t in targets]),
        targets=targets,
    )


def empty_fst() -> WordFst:
    """A single-state automaton accepting nothing (used for empty corpora)."""
    return WordFst(start=0, finals=frozenset(), arcs=((),), phi_states=frozenset({0}))


def arcs_in_range(fst: WordFst, state: int, lo: int, hi: int) -> tuple[Arc, ...]:
    """The half-open slice [lo, hi) of the sorted arc list of ``state``."""
    if not 0 <= state < fst.num_states:
        raise IndexError(f"state {state} out of range (0..{fst.num_states - 1})")
    n = fst.arc_count(state)
    if lo > hi:
        raise ValueError(f"invalid arc range: lo={lo} > hi={hi}")
    if lo < 0 or hi > n:
        raise ValueError(f"arc range [{lo}, {hi}) out of bounds for {n} arcs")
    return fst.arcs[state][lo:hi]


def _arc_problem(state: int, prev: str, word: str, weight: float, nextstate: int) -> str:
    """The first check an arc fails, given the previous word at its state
    (``""`` for a state's first arc) and that it fails one of them."""
    if not word:
        return f"state {state}: empty arc word"
    if word <= prev:
        return f"state {state}: arcs not strictly sorted at {word!r}"
    if not math.isfinite(weight):
        return f"state {state}: non-finite weight on {word!r}"
    return f"state {state}: next state {nextstate} out of range"


def _count_reachable(start: int, offsets: array, targets: array) -> int:
    """The number of states reachable from ``start`` (next states in range)."""
    seen = bytearray(len(offsets) - 1)
    seen[start] = 1
    count = 1
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for t in targets[offsets[s] : offsets[s + 1]]:
            if not seen[t]:
                seen[t] = 1
                count += 1
                frontier.append(t)
    return count


def validate_fst(fst: WordFst) -> None:
    """Check structural invariants; raises ValueError on the first violation.

    The ``BLFST1`` reader makes the same checks, in the same order, as it
    reads; this is for automata built by hand.
    """
    n = fst.num_states
    if not 0 <= fst.start < n:
        raise ValueError(f"start state {fst.start} out of range")
    offsets, words, weights, targets = fst.offsets, fst.arc_words, fst.weights, fst.targets
    isfinite = math.isfinite
    for s in range(n):
        lo, hi = offsets[s], offsets[s + 1]
        prev = ""
        for i in range(lo, hi):
            word = words[i]
            if word <= prev or not isfinite(weights[i]) or targets[i] >= n:
                raise ValueError(_arc_problem(s, prev, word, weights[i], targets[i]))
            prev = word
        if lo == hi and s not in fst.finals and s != fst.start:
            raise ValueError(f"state {s} is a non-final dead end")
    for s in fst.finals | fst.phi_states:
        if not 0 <= s < n:
            raise ValueError(f"state {s} out of range")
    unreachable = n - _count_reachable(fst.start, offsets, targets)
    if unreachable:
        raise ValueError(f"{unreachable} states unreachable from start")


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
# Versioned layout, magic ``BLFST1``, little-endian integers, length-prefixed
# UTF-8 strings:
#
#   magic | u32 num_states | u32 start |
#   per state: u8 flags (bit0 final, bit1 phi) | u32 num_arcs |
#     per arc: u32 len | bytes word | f64 weight | u32 nextstate

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<II")  # num_states, start
_STATE = struct.Struct("<BI")  # flags, num_arcs
_ARC_TAIL = struct.Struct("<dI")  # weight, nextstate


def serialize(fst: WordFst) -> bytes:
    out = bytearray(_MAGIC)
    out += _HEADER.pack(fst.num_states, fst.start)
    pack_state, pack_u32, pack_tail = _STATE.pack, _U32.pack, _ARC_TAIL.pack
    finals, phi, offsets = fst.finals, fst.phi_states, fst.offsets
    words, weights, targets = fst.arc_words, fst.weights, fst.targets
    i = 0
    for s in range(fst.num_states):
        hi = offsets[s + 1]
        out += pack_state((1 if s in finals else 0) | (2 if s in phi else 0), hi - i)
        while i < hi:
            raw = words[i].encode("utf-8")
            out += pack_u32(len(raw))
            out += raw
            out += pack_tail(weights[i], targets[i])
            i += 1
    return bytes(out)


def _truncated(n: int, at: int) -> InputFormatError:
    return InputFormatError(f"truncated automaton: needed {n} bytes at offset {at}")


def _bad_flags(flags: int, at: int) -> InputFormatError:
    return InputFormatError(f"unknown state flags {flags:#x} at offset {at}")


def _malformed(problem: str) -> InputFormatError:
    return InputFormatError(f"malformed automaton: {problem}")


def deserialize(data: bytes) -> WordFst:
    """Parse a ``BLFST1`` buffer in one loop over it, straight into columns.

    Each state header and each arc's weight and next state is one
    precompiled ``unpack_from``.  Fields are read in file order, so the first
    field that runs past the end of ``data``, or is not a field of the
    format, names the error and its byte offset.  The structural checks of
    :func:`validate_fst` run in the same loop; each records only the first
    violation, which is raised once the whole buffer has read cleanly, so
    every error and its precedence are those of reading the buffer and then
    validating it.
    """
    end = len(data)
    pos = len(_MAGIC)
    if pos > end:
        raise _truncated(pos, 0)
    if data[:pos] != _MAGIC:
        raise InputFormatError("bad magic: not a serialized biasing automaton")
    if pos + 8 > end:
        raise _truncated(4, pos if pos + 4 > end else pos + 4)
    num_states, start = _HEADER.unpack_from(data, pos)
    pos += 8
    unpack_state, unpack_u32, unpack_tail = (
        _STATE.unpack_from, _U32.unpack_from, _ARC_TAIL.unpack_from
    )
    isfinite = math.isfinite
    finals = []
    phi = []
    arc_words, weights, targets, offsets = [], array("d"), array("I"), array("I", [0])
    add_word, add_weight, add_target = arc_words.append, weights.append, targets.append
    problem = None
    for s in range(num_states):
        if pos + 5 > end:
            # A short header: report the flag byte first, as a field-by-field read would.
            if pos < end and data[pos] & ~3:
                raise _bad_flags(data[pos], pos)
            raise _truncated(1, pos) if pos >= end else _truncated(4, pos + 1)
        flags, num_arcs = unpack_state(data, pos)
        if flags & ~3:
            raise _bad_flags(flags, pos)
        if flags & 1:
            finals.append(s)
        if flags & 2:
            phi.append(s)
        pos += 5
        prev = ""
        for _ in range(num_arcs):
            if pos + 4 > end:
                raise _truncated(4, pos)
            (n,) = unpack_u32(data, pos)
            pos += 4
            stop = pos + n
            if stop > end:
                raise _truncated(n, pos)
            try:
                word = data[pos:stop].decode("utf-8")
            except UnicodeDecodeError:
                raise InputFormatError(f"invalid UTF-8 string at offset {pos}") from None
            pos = stop + 12
            if pos > end:
                raise _truncated(8, stop) if stop + 8 > end else _truncated(4, stop + 8)
            weight, nextstate = unpack_tail(data, stop)
            if word <= prev or not isfinite(weight) or nextstate >= num_states:
                if problem is None:
                    problem = _arc_problem(s, prev, word, weight, nextstate)
            prev = word
            add_word(word)
            add_weight(weight)
            add_target(nextstate)
        if not num_arcs and not flags & 1 and s != start and problem is None:
            problem = f"state {s} is a non-final dead end"
        offsets.append(len(arc_words))
    if pos != end:
        raise InputFormatError(f"{end - pos} trailing bytes at offset {pos}")
    if not start < num_states:
        raise _malformed(f"start state {start} out of range")
    if problem is not None:
        raise _malformed(problem)
    unreachable = num_states - _count_reachable(start, offsets, targets)
    if unreachable:
        raise _malformed(f"{unreachable} states unreachable from start")
    return WordFst.from_columns(
        start=start, finals=finals, phi_states=phi,
        offsets=offsets, arc_words=arc_words, weights=weights, targets=targets,
    )


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
