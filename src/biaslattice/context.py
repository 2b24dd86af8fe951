"""Class-template automata and contextual injection of personalized models.

An annotated corpus ("call @contactname(ada lovelace)") is reduced to class
templates ("call @contactname"), and templates frequent enough are compiled
into an unweighted trie.  At scoring time each class tag is backed by a
personalized biasing automaton: while a hypothesis walks a template, words
under a tag are scored by a nested subword phrase walk over the bound
automaton, and the template skeleton itself contributes exactly zero.  Words
that leave the template reset the walk at no cost, so contextual biasing
boosts catalog phrases only where a template licenses them.  Like the walks
it nests, :class:`ContextualBiaser` is its own scorer: a set of pure
transitions over plain state tuples.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import InputFormatError, open_text, records
from .fst import (
    CatalogEntry,
    WordFst,
    build_catalog_fst,
    empty_fst,
    load_fst,
    strongest,
)
from .lookahead import PhraseWalk, Session, WordOutcome

_SPAN = re.compile(r"@([A-Za-z0-9]+)\(([^()]*)\)")


class Span(NamedTuple):
    tag: str
    words: tuple[str, ...]


def parse_annotated(line: str, *, where: str = "line") -> list[str | Span]:
    """Tokenize one corpus line; spans are written ``@tag(word word ...)``."""
    out: list[str | Span] = []
    i = 0
    n = len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        if line[i] == "@":
            m = _SPAN.match(line, i)
            if m is None:
                raise InputFormatError(f"{where}: malformed class annotation at column {i + 1}")
            words = tuple(m.group(2).split())
            if not words:
                raise InputFormatError(f"{where}: empty span for @{m.group(1)}")
            out.append(Span("@" + m.group(1), words))
            i = m.end()
            if i < n and not line[i].isspace():
                raise InputFormatError(f"{where}: trailing characters after span at column {i + 1}")
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            tok = line[i:j]
            if any(c in tok for c in "@()"):
                raise InputFormatError(f"{where}: stray annotation character in {tok!r}")
            out.append(tok)
            i = j
    return out


@dataclass(frozen=True)
class ClassFst:
    """Unweighted template trie whose labels are plain words or class tags."""

    fst: WordFst
    tags: frozenset[str]


def build_class_fst(
    lines: Iterable[str], min_count: int = 10, *, source: str = "<corpus>"
) -> ClassFst:
    """Count tag-substituted utterance templates and keep the frequent ones.

    Each annotated span collapses to its class tag; templates occurring at
    least ``min_count`` times become zero-weight trie paths.  The result is
    independent of corpus line order.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    templates: Counter[tuple[str, ...]] = Counter()
    for where, line in records(lines, source):
        tokens = parse_annotated(line.lower(), where=where)
        templates[tuple(tok.tag if isinstance(tok, Span) else tok for tok in tokens)] += 1
    kept = sorted(t for t, c in templates.items() if c >= min_count)
    # Distinct templates, all at weight 0: the builder has nothing to refuse.
    fst = build_catalog_fst(CatalogEntry(t, 0.0) for t in kept) if kept else empty_fst()
    return _class_fst(fst)


def load_class_fst(path) -> ClassFst:
    return _class_fst(load_fst(path))


def _class_fst(fst: WordFst) -> ClassFst:
    """A template automaton with its class tags: its ``@`` arc words."""
    return ClassFst(fst, frozenset(word for word in fst.arc_words if word.startswith("@")))


@dataclass(frozen=True)
class Binding:
    """The automaton path a manifest line binds to a tag.  Errors blaming it
    name ``where``, the ``file:line`` it was read from."""

    path: str
    where: str | None = field(default=None, compare=False, repr=False)


def read_bindings(
    lines: Iterable[str], *, tags: frozenset[str], source: str = "<bindings>"
) -> dict[str, Binding]:
    """Parse a binding manifest: ``@tag<TAB>path`` per line, each tag one of ``tags``."""
    out: dict[str, Binding] = {}
    for where, line in records(lines, source):
        tag, sep, path = line.partition("\t")
        tag = tag.strip()
        if not sep or not tag.startswith("@") or not path.strip():
            raise InputFormatError(f"{where}: expected '@tag<TAB>path'")
        if tag not in tags:
            raise InputFormatError(f"{where}: the class automaton has no tag {tag!r}")
        if tag in out:
            raise InputFormatError(f"{where}: duplicate binding for {tag!r}")
        out[tag] = Binding(path.strip(), where)
    if not out:
        raise InputFormatError(f"{source}: no bindings found")
    return out


def load_bindings(path, class_fst: ClassFst) -> dict[str, WordFst]:
    """The automata a manifest binds: exactly the tags of ``class_fst``, each once.

    Each distinct file is loaded once, so tags bound to one file share its
    automaton, and :class:`ContextualBiaser` gives them one lookahead cache.
    A bound path that cannot be opened, such as a missing file or a path
    holding a NUL byte, raises InputFormatError naming its manifest line.
    """
    with open_text(path) as f:
        manifest = read_bindings(f, tags=class_fst.tags, source=str(path))
    base = os.path.dirname(os.fspath(path))
    bindings, loaded = {}, {}
    for tag, binding in manifest.items():
        try:
            # join() keeps an absolute path as it is and resolves a relative one.
            bound = os.path.join(base, binding.path)
            file = os.path.realpath(bound)
            if file not in loaded:
                loaded[file] = load_fst(bound)
            bindings[tag] = loaded[file]
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise InputFormatError(
                f"{binding.where}: cannot open {binding.path!r}: {exc}") from None
    missing = class_fst.tags - bindings.keys()
    if missing:
        raise InputFormatError(f"{path}: no binding for {sorted(missing)}")
    return bindings


class ContextualBiaser:
    """A class-template trie with a personalized automaton bound to each tag.

    The biaser is its own scorer: :meth:`initial` and the pure transitions
    :meth:`expand`, :meth:`finish_word` and :meth:`finalize` map a plain,
    hashable state ``(pos, race, word_chars)`` (the template position, the
    open tag race or None, and the content of the current word so far) and
    word content to a score increment and a new state.  Outside a tag, completed
    words step the position along plain arcs at weight zero (missing words
    reset it, and cost nothing at the start state).  When the position
    offers class tags, the next word opens a race of nested phrase walks
    over the bound automata.

    A race is ``(entries, a_prev, dropped_bank)`` with one ``(tag, walk
    state, total)`` entry per contending tag.  It emits the strongest of the
    totals (``fst.strongest``, the one score convention), so the strongest
    candidate is paid out early, and trues up when a winner completes; with
    a single tag the nested walk's increments pass straight through.
    ``dropped_bank`` is the strongest ``(total, tag)`` of walks that
    completed a phrase and were then dropped: that banked score is kept even
    if every sibling later dies.  End of stream fails every walk, as a word
    that matches nothing does: a walk that banked a phrase competes with
    ``dropped_bank``, one that banked nothing pays everything back and does
    not compete, and with no banked total the race settles at 0.  Every
    pick of the race is ``strongest``.

    Each bound automaton has one lookahead cache, shared by the walks of
    every tag bound to it and by every utterance; it keeps live bands only,
    so its size is bounded by the automaton's (state, arc-word prefix) pairs.
    """

    def __init__(self, class_fst: ClassFst, bindings: dict[str, WordFst]):
        missing = class_fst.tags - bindings.keys()
        if missing:
            raise ValueError(f"unbound class tags: {sorted(missing)}")
        self.class_fst = class_fst
        self.bindings = dict(bindings)
        caches: dict[int, dict] = {}  # id(fst) -> lookahead cache
        self.walks = {
            tag: PhraseWalk(fst, cache=caches.setdefault(id(fst), {}))
            for tag, fst in self.bindings.items()
        }
        # Each tagged position's tag -> next state, and the race it opens:
        # every tag's walk at its start.
        fst = class_fst.fst
        self._tag_states: dict[int, dict[str, int]] = {}
        for state in range(fst.num_states):
            tagged = {
                fst.arc_words[i]: fst.next_state(i)
                for i in range(fst.offsets[state], fst.offsets[state + 1])
                if fst.arc_words[i].startswith("@")
            }
            if tagged:
                self._tag_states[state] = tagged
        self._races = {
            state: (tuple((tag, self.walks[tag].initial(), 0.0) for tag in tagged), 0.0, None)
            for state, tagged in self._tag_states.items()
        }

    def initial(self) -> tuple:
        """The state of a hypothesis before its first token."""
        return (self.class_fst.fst.start, None, "")

    def open_session(self) -> Session:
        return Session(self, self.initial())

    def expand(self, state, content):
        pos, race, chars = state
        if race is None:
            if chars:
                return 0.0, (pos, None, chars + content)
            pos, race = self._word_start(pos)
            if race is None:
                return 0.0, (pos, None, content)
        entries, a_prev, dropped = race
        walks = self.walks
        stepped = []
        agg = None
        for tag, ws, total in entries:
            increment, ws = walks[tag].expand(ws, content)
            total += increment
            stepped.append((tag, ws, total))
            agg = total if agg is None else strongest(agg, total)
        return agg - a_prev, (pos, (tuple(stepped), agg, dropped), chars + content)

    def finish_word(self, state, content):
        """Returns ``(increment, winning tag or None, state)``."""
        pos, race, chars = state
        if race is None and not chars and content:
            pos, race = self._word_start(pos)
        word = chars + content
        if race is None:
            if word:
                pos = self._skeleton_step(pos, word)
            return 0.0, None, (pos, None, "")
        increment, race, tag, consumed = _settle(
            race, [self.walks[t].finish_word(ws, content) for t, ws, _ in race[0]])
        if race is not None:
            return increment, None, (pos, race, "")
        if tag is not None:
            pos = self._tag_states[pos][tag]
        if not consumed and word:
            pos = self._skeleton_step(pos, word)
        return increment, tag, (pos, None, "")

    def finalize(self, state):
        """End of stream: every open walk fails, as at a word that matches nothing."""
        pos, race, chars = state
        if race is None:
            return 0.0, state
        ends = (self.walks[t].finalize(ws) for t, ws, _ in race[0])
        increment = _settle(race, [(i, WordOutcome.FAILED, ws) for i, ws in ends])[0]
        return increment, (pos, None, chars)

    def _word_start(self, pos):
        # A dead-end template position can match nothing: restart the walk
        # before this word rather than after it.
        fst = self.class_fst.fst
        if not fst.arc_count(pos):
            pos = fst.start
        return pos, self._races.get(pos)

    def _skeleton_step(self, pos, word):
        fst = self.class_fst.fst
        i = fst.arc_id(pos, word)
        return fst.start if i is None else fst.next_state(i)


def _settle(race, closed):
    """Settle ``race`` on each entry's ``(increment, outcome, walk state)``
    in ``closed``: ``(increment, race or None once resolved, tag, consumed)``.

    ``consumed`` is False when the closing word still needs a skeleton
    step; ``tag`` is None when the whole tag attempt failed.
    """
    entries, a_prev, dropped = race
    winner = None
    kept = []
    for (tag, _, total), (increment, outcome, ws) in zip(entries, closed):
        total += increment
        if outcome is WordOutcome.COMPLETED:
            winner = (total, tag) if winner is None else strongest(winner, (total, tag))
        elif outcome is not WordOutcome.FAILED:
            kept.append((tag, ws, total))
        elif ws[7]:
            dropped = (total, tag) if dropped is None else strongest(dropped, (total, tag))
    if winner is not None:
        return winner[0] - a_prev, None, winner[1], True
    if kept:
        agg = strongest(t for _, _, t in kept)
        return agg - a_prev, (tuple(kept), agg, dropped), None, False
    total, tag = dropped or (0.0, None)
    return total - a_prev, None, tag, False
