"""Word-level weighted biasing automata built from personal phrase catalogs.

A catalog (contact names, device names, application names) compiles into a
trie-shaped automaton whose arcs are labelled with whole words.  Arcs leaving
a state are kept in strict lexicographic order so prefix lookups can use
binary search.  The start state carries a zero-cost "phi" self-loop that
absorbs any word not listed on its outgoing arcs.

The builder maps every word path of the catalog to its arc weight and
numbers the states by sorting those paths, which is the preorder walk of the
trie; no node objects are made.  The ``BLFST1`` reader is one loop over the
buffer with precompiled ``struct`` unpacks and explicit bounds checks.

Automata are immutable after construction and safe to share across threads;
all mutation happens inside the builder.  Derived views (the per-state word
lists and the band index) are built lazily on first use; threads racing on
one only compute the same value twice.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import InputFormatError
from .wordpiece import DEFAULT_DELIMITER

DEFAULT_WEIGHT = -1.0

_MAGIC = b"BLFST1"

# Block size of the band index: states with more than 2 * BAND_BLOCK arcs get
# per-block summaries, so a band summary costs O(BAND_BLOCK + band/BAND_BLOCK).
BAND_BLOCK = 32

_weight = itemgetter(1)


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


@dataclass(frozen=True)
class WordFst:
    """Trie-shaped weighted automaton over whole words.

    ``arcs[s]`` holds the outgoing arcs of state ``s`` in strict lexicographic
    order of their input word (no duplicate words at one state).  ``finals``
    mark phrase ends; ``phi_states`` mark states carrying the zero-cost
    any-word self-loop (the start state, by construction).
    """

    start: int
    finals: frozenset[int]
    arcs: tuple[tuple[Arc, ...], ...]
    phi_states: frozenset[int]

    @cached_property
    def words(self) -> tuple[tuple[str, ...], ...]:
        """Per-state sorted input words, parallel to ``arcs`` (for bisect)."""
        return tuple(tuple(a.word for a in state) for state in self.arcs)

    @cached_property
    def _band_index(self) -> dict[int, tuple[list[int], list[float]]]:
        """Per-state (block max word length, block min weight).

        Only states with more than ``2 * BAND_BLOCK`` arcs are indexed; shorter
        bands are summarized straight from their slice.
        """
        b = BAND_BLOCK
        index = {}
        for state, arcs in enumerate(self.arcs):
            if len(arcs) <= 2 * b:
                continue
            words = self.words[state]
            index[state] = (
                [max(map(len, words[i : i + b])) for i in range(0, len(arcs), b)],
                [min(map(_weight, arcs[i : i + b])) for i in range(0, len(arcs), b)],
            )
        return index

    @property
    def num_states(self) -> int:
        return len(self.arcs)

    @property
    def num_arcs(self) -> int:
        return sum(len(state) for state in self.arcs)

    def band_summary(self, state: int, lo: int, hi: int) -> tuple[int, float]:
        """``(longest word length, minimum weight)`` over arcs ``[lo, hi)`` of ``state``.

        The band must be non-empty.  Ties on the weight resolve to the first
        arc in positional order, as a left-to-right scan would.
        """
        words, arcs = self.words[state], self.arcs[state]
        if hi - lo <= 2 * BAND_BLOCK:
            return max(map(len, words[lo:hi])), min(map(_weight, arcs[lo:hi]))
        block_len, block_weight = self._band_index[state]
        # Head slice up to the first block boundary, whole blocks, tail slice.
        b0 = -(-lo // BAND_BLOCK)
        b1 = hi // BAND_BLOCK
        head, tail = b0 * BAND_BLOCK, b1 * BAND_BLOCK
        return (
            max(chain(map(len, words[lo:head]), block_len[b0:b1], map(len, words[tail:hi]))),
            min(chain(
                map(_weight, arcs[lo:head]), block_weight[b0:b1], map(_weight, arcs[tail:hi])
            )),
        )

    def find_arc(self, state: int, word: str) -> Arc | None:
        """Exact-match lookup of ``word`` among the arcs of ``state``."""
        ws = self.words[state]
        i = bisect.bisect_left(ws, word)
        if i < len(ws) and ws[i] == word:
            return self.arcs[state][i]
        return None

    def phrase_path(self, phrase: Iterable[str]) -> tuple[int, float] | None:
        """Follow whole-word arcs from the start state.

        Returns ``(end_state, summed_weight)``, or None if some word has no
        arc along the way.
        """
        state = self.start
        total = 0.0
        for word in phrase:
            arc = self.find_arc(state, word)
            if arc is None:
                return None
            total += arc.weight
            state = arc.nextstate
        return state, total

    def iter_phrases(self):
        """Yield ``(phrase_words, end_state)`` for every path ending final."""
        stack = [(self.start, ())]
        while stack:
            state, words = stack.pop()
            if state in self.finals and words:
                yield words, state
            for arc in reversed(self.arcs[state]):
                stack.append((arc.nextstate, words + (arc.word,)))


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
    preorder walk of the trie over sorted edges.  One more pass over the
    sorted paths appends each arc to its parent's list, so every list comes
    out sorted.

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

    arcs: list[list[Arc]] = [[] for _ in range(len(paths) + 1)]
    finals = []
    # The states along the current path; in preorder a path's parent is the
    # latest state one word shorter.
    stack = [0]
    new = tuple.__new__
    for state, (path, weight) in enumerate(sorted(paths.items()), 1):
        del stack[len(path):]
        arcs[stack[-1]].append(new(Arc, (path[-1], weight, state)))
        stack.append(state)
        if path in phrases:
            finals.append(state)
    return WordFst(
        start=0, finals=frozenset(finals), arcs=tuple(map(tuple, arcs)),
        phi_states=frozenset({0}),
    )


def empty_fst() -> WordFst:
    """A single-state automaton accepting nothing (used for empty corpora)."""
    return WordFst(start=0, finals=frozenset(), arcs=((),), phi_states=frozenset({0}))


def arcs_in_range(fst: WordFst, state: int, lo: int, hi: int) -> tuple[Arc, ...]:
    """The half-open slice [lo, hi) of the sorted arc list of ``state``."""
    if not 0 <= state < fst.num_states:
        raise IndexError(f"state {state} out of range (0..{fst.num_states - 1})")
    arcs = fst.arcs[state]
    if lo > hi:
        raise ValueError(f"invalid arc range: lo={lo} > hi={hi}")
    if lo < 0 or hi > len(arcs):
        raise ValueError(f"arc range [{lo}, {hi}) out of bounds for {len(arcs)} arcs")
    return arcs[lo:hi]


def validate_fst(fst: WordFst) -> None:
    """Check structural invariants; raises ValueError on the first violation."""
    n = fst.num_states
    if not 0 <= fst.start < n:
        raise ValueError(f"start state {fst.start} out of range")
    for s, arcs in enumerate(fst.arcs):
        prev = None
        for arc in arcs:
            if not arc.word:
                raise ValueError(f"state {s}: empty arc word")
            if prev is not None and arc.word <= prev:
                raise ValueError(f"state {s}: arcs not strictly sorted at {arc.word!r}")
            prev = arc.word
            if not math.isfinite(arc.weight):
                raise ValueError(f"state {s}: non-finite weight on {arc.word!r}")
            if not 0 <= arc.nextstate < n:
                raise ValueError(f"state {s}: next state {arc.nextstate} out of range")
        if not arcs and s not in fst.finals and s != fst.start:
            raise ValueError(f"state {s} is a non-final dead end")
    for s in fst.finals | fst.phi_states:
        if not 0 <= s < n:
            raise ValueError(f"state {s} out of range")
    reached = {fst.start}
    frontier = [fst.start]
    while frontier:
        s = frontier.pop()
        for arc in fst.arcs[s]:
            if arc.nextstate not in reached:
                reached.add(arc.nextstate)
                frontier.append(arc.nextstate)
    if len(reached) != n:
        raise ValueError(f"{n - len(reached)} states unreachable from start")


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
_F64 = struct.Struct("<d")
_STATE = struct.Struct("<BI")  # flags, num_arcs
_ARC_TAIL = struct.Struct("<dI")  # weight, nextstate


def serialize(fst: WordFst) -> bytes:
    out = bytearray(_MAGIC)
    out += _U32.pack(fst.num_states)
    out += _U32.pack(fst.start)
    for s in range(fst.num_states):
        flags = (1 if s in fst.finals else 0) | (2 if s in fst.phi_states else 0)
        out.append(flags)
        out += _U32.pack(len(fst.arcs[s]))
        for arc in fst.arcs[s]:
            raw = arc.word.encode("utf-8")
            out += _U32.pack(len(raw))
            out += raw
            out += _F64.pack(arc.weight)
            out += _U32.pack(arc.nextstate)
    return bytes(out)


def _truncated(n: int, at: int) -> InputFormatError:
    return InputFormatError(f"truncated automaton: needed {n} bytes at offset {at}")


def _bad_flags(flags: int, at: int) -> InputFormatError:
    return InputFormatError(f"unknown state flags {flags:#x} at offset {at}")


def deserialize(data: bytes) -> WordFst:
    """Parse a ``BLFST1`` buffer in one loop over it.

    Each state header and each arc's weight and next state is one
    precompiled ``unpack_from``.  Fields are checked in file order, so the
    first field that runs past the end of ``data``, or fails its check,
    names the error and its byte offset.
    """
    end = len(data)
    pos = len(_MAGIC)
    if pos > end:
        raise _truncated(pos, 0)
    if data[:pos] != _MAGIC:
        raise InputFormatError("bad magic: not a serialized biasing automaton")
    if pos + 8 > end:
        raise _truncated(4, pos if pos + 4 > end else pos + 4)
    num_states, start = struct.unpack_from("<II", data, pos)
    pos += 8
    unpack_state, unpack_u32, unpack_tail = (
        _STATE.unpack_from, _U32.unpack_from, _ARC_TAIL.unpack_from
    )
    new = tuple.__new__
    finals = []
    phi = []
    arcs = []
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
        state_arcs = []
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
            state_arcs.append(new(Arc, (word, weight, nextstate)))
        arcs.append(tuple(state_arcs))
    if pos != end:
        raise InputFormatError(f"{end - pos} trailing bytes at offset {pos}")
    fst = WordFst(
        start=start, finals=frozenset(finals), arcs=tuple(arcs), phi_states=frozenset(phi)
    )
    try:
        validate_fst(fst)
    except ValueError as exc:
        raise InputFormatError(f"malformed automaton: {exc}") from None
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
