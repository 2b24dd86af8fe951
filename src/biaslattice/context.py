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

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import InputFormatError
from .fst import (
    DEFAULT_DELIMITER,
    CatalogEntry,
    CatalogError,
    WordFst,
    build_catalog_fst,
    empty_fst,
    load_fst,
    strongest,
)
from .lookahead import PhraseWalk, Session, WordOutcome, token_content

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
    tags: set[str] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip().lower()
        if not line or line.startswith("#"):
            continue
        tokens = parse_annotated(line, where=f"{source}:{lineno}")
        template = []
        for tok in tokens:
            if isinstance(tok, Span):
                template.append(tok.tag)
                tags.add(tok.tag)
            else:
                template.append(tok)
        if template:
            templates[tuple(template)] += 1
    kept = sorted(t for t, c in templates.items() if c >= min_count)
    if not kept:
        return ClassFst(empty_fst(), frozenset())
    try:
        fst = build_catalog_fst(CatalogEntry(t, 0.0) for t in kept)
    except CatalogError as exc:
        raise InputFormatError(f"{source}: {exc}") from None
    used = frozenset(tag for t in kept for tag in t if tag.startswith("@"))
    return ClassFst(fst, used)


def load_class_fst(path) -> ClassFst:
    fst = load_fst(path)
    tags = frozenset(word for word in fst.arc_words if word.startswith("@"))
    return ClassFst(fst, tags)


def read_bindings(lines: Iterable[str], *, source: str = "<bindings>") -> dict[str, str]:
    """Parse a binding manifest: ``@tag<TAB>path`` per line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, sep, path = line.partition("\t")
        if not sep or not tag.startswith("@") or not path.strip():
            raise InputFormatError(f"{source}:{lineno}: expected '@tag<TAB>path'")
        out[tag] = path.strip()
    if not out:
        raise InputFormatError(f"{source}: no bindings found")
    return out


def load_bindings(path, class_fst: ClassFst | None = None) -> dict[str, WordFst]:
    import os

    with open(path, encoding="utf-8") as f:
        manifest = read_bindings(f, source=str(path))
    base = os.path.dirname(os.fspath(path))
    bindings = {
        tag: load_fst(p if os.path.isabs(p) else os.path.join(base, p))
        for tag, p in manifest.items()
    }
    if class_fst is not None:
        missing = class_fst.tags - bindings.keys()
        if missing:
            raise InputFormatError(f"{path}: no binding for {sorted(missing)}")
    return bindings


class ContextualBiaser:
    """A class-template trie with a personalized automaton bound to each tag.

    The biaser is its own scorer: :meth:`initial` and the pure transitions
    :meth:`expand`, :meth:`finish_word` and :meth:`finalize` map a plain,
    hashable state ``(pos, race, word_chars)`` (the template position, the
    open tag race or None, and the content of the current word so far) and a
    token to a score increment and a new state.  Outside a tag, completed
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
    if every sibling later dies.  Every pick of the race is ``strongest``.

    Each bound automaton has one lookahead cache, shared by the walks of
    every tag bound to it and by every utterance; it keeps live bands only,
    so its size is bounded by the automaton's (state, arc-word prefix) pairs.
    """

    def __init__(
        self,
        class_fst: ClassFst,
        bindings: dict[str, WordFst],
        *,
        delimiter: str = DEFAULT_DELIMITER,
    ):
        missing = class_fst.tags - bindings.keys()
        if missing:
            raise ValueError(f"unbound class tags: {sorted(missing)}")
        self.class_fst = class_fst
        self.bindings = dict(bindings)
        self.delimiter = delimiter
        caches: dict[int, dict] = {}  # id(fst) -> lookahead cache
        self.walks = {
            tag: PhraseWalk(fst, delimiter=delimiter, cache=caches.setdefault(id(fst), {}))
            for tag, fst in self.bindings.items()
        }
        # Each tagged position's tag -> target arcs, and the race it opens:
        # every tag's walk at its start.
        fst = class_fst.fst
        self._tag_targets: dict[int, dict[str, int]] = {}
        for state in range(fst.num_states):
            tagged = {
                fst.arc_words[i]: fst.targets[i]
                for i in range(fst.offsets[state], fst.offsets[state + 1])
                if fst.arc_words[i].startswith("@")
            }
            if tagged:
                self._tag_targets[state] = tagged
        self._races = {
            state: (tuple((tag, self.walks[tag].initial(), 0.0) for tag in tagged), 0.0, None)
            for state, tagged in self._tag_targets.items()
        }

    def initial(self) -> tuple:
        """The state of a hypothesis before its first token."""
        return (self.class_fst.fst.start, None, "")

    def open_session(self) -> Session:
        return Session(self, self.initial())

    def expand(self, state, subword):
        pos, race, chars = state
        if race is None:
            if chars:
                return 0.0, (pos, None, chars + subword)
            pos, race = self._word_start(pos)
            if race is None:
                return 0.0, (pos, None, subword)
        entries, a_prev, dropped = race
        walks = self.walks
        stepped = []
        agg = None
        for tag, ws, total in entries:
            increment, ws = walks[tag].expand(ws, subword)
            total += increment
            stepped.append((tag, ws, total))
            agg = total if agg is None else strongest(agg, total)
        return agg - a_prev, (pos, (tuple(stepped), agg, dropped), chars + subword)

    def finish_word(self, state, token):
        """Returns ``(increment, winning tag or None, state)``."""
        pos, race, chars = state
        content = token_content(token, self.delimiter)
        if race is None and not chars and content:
            pos, race = self._word_start(pos)
        word = chars + content
        if race is None:
            if word:
                pos = self._skeleton_step(pos, word)
            return 0.0, None, (pos, None, "")
        increment, race, tag, consumed = self._race_finish(race, token)
        if race is not None:
            return increment, None, (pos, race, "")
        if tag is not None:
            pos = self._tag_targets[pos][tag]
        if not consumed and word:
            pos = self._skeleton_step(pos, word)
        return increment, tag, (pos, None, "")

    def finalize(self, state):
        pos, race, chars = state
        if race is None:
            return 0.0, state
        # Keep the strongest banked total; pay back everything unsettled.
        entries, a_prev, dropped = race
        best_banked = strongest(t + self.walks[tag].finalize(ws)[0] for tag, ws, t in entries)
        if dropped is not None:
            best_banked = strongest(best_banked, dropped[0])
        return best_banked - a_prev, (pos, None, chars)

    def _word_start(self, pos):
        # A dead-end template position can match nothing: restart the walk
        # before this word rather than after it.
        fst = self.class_fst.fst
        if not fst.arc_count(pos):
            pos = fst.start
        return pos, self._races.get(pos)

    def _race_finish(self, race, token):
        """``(increment, race or None once resolved, tag, consumed)``.

        ``consumed`` is False when the closing word still needs a skeleton
        step; ``tag`` is None when the whole tag attempt failed.
        """
        entries, a_prev, dropped = race
        walks = self.walks
        closed = []
        for tag, ws, total in entries:
            increment, outcome, ws = walks[tag].finish_word(ws, token)
            closed.append((tag, ws, total + increment, outcome))
        winner = strongest(
            ((t, tag) for tag, _, t, outcome in closed if outcome is WordOutcome.COMPLETED),
            default=None,
        )
        if winner is not None:
            return winner[0] - a_prev, None, winner[1], True
        kept = []
        for tag, ws, total, outcome in closed:
            if outcome is not WordOutcome.FAILED:
                kept.append((tag, ws, total))
            elif ws[7]:
                dropped = (total, tag) if dropped is None else strongest(dropped, (total, tag))
        if kept:
            agg = strongest(t for _, _, t in kept)
            return agg - a_prev, (tuple(kept), agg, dropped), None, False
        if dropped is not None:
            return dropped[0] - a_prev, None, dropped[1], False
        return 0.0 - a_prev, None, None, False

    def _skeleton_step(self, pos, word):
        fst = self.class_fst.fst
        i = fst.arc_id(pos, word)
        return fst.start if i is None else fst.targets[i]
