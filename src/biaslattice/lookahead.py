"""On-the-fly subword scoring over word-level biasing automata.

Biasing models stay at the word level; this module applies them while a
decoder emits subword tokens, without ever materializing a subword-level
automaton.  As tokens extend the current word prefix, binary search narrows
the band of arcs compatible with the prefix.  After each token the walk
has "pushed" a share of the strongest reachable arc weight, proportional to
how much of the longest candidate word the prefix covers:

    pushed = lookahead * len(prefix) / max_word_len_in_band

and it emits the difference from the previously pushed amount.  Completing a
word trues the running total up to the matched arc's exact weight, so the
net score of any full word equals its word-level arc weight regardless of
segmentation.  A prefix that stops matching pays back everything pushed for
it (the fallback), so abandoned prefixes are score-neutral.

Worked example, catalog {play, player, playground} all at weight -8,
token stream ``pl ay er_``, which the decoder passes on as ``expand("pl")``,
``expand("ay")`` and ``finish_word("er")``:

    pl      band=3 arcs  len=2 of 10   pushed -1.6   increment -1.6
    ay      band=3 arcs  len=4 of 10   pushed -3.2   increment -1.6
    er      band=1 arc   exact match "player", arc weight -8: increment -4.8

Increments sum to -8, the word-level weight of "player".

A band is a slice of the automaton's columns: a walk state holds it as two
column positions ``[lo, hi)``, and so does a cache entry.  A step that
misses the cache bisects the band within the word column once.  If the
prefix fell out of every arc, that is all it costs: a dead prefix is never
cached.  A live band costs a second bisect, for its upper end, plus
:meth:`WordFst.band_summary`, which finds the band's longest word and
strongest weight (``fst.strongest``) in C over the band's slice.  A cache
never evicts, stores each live ``(state, prefix)`` once, and an arc lies in
the bands of at most ``len(word)`` prefixes, so the bands a cache ever
summarizes sum to at most the arc words' total length.  No step scans the
band in Python, and a word's exact match, if any, is the word at ``lo``.

Scoring is a set of pure transitions over word content: the decoder splits
each token once (:func:`wordpiece.word_end`), so no walk knows the delimiter.
:class:`PhraseWalk` maps a walk state, a plain hashable tuple, and content to
``(increment, new state)``.  It holds the automaton, a lookahead cache and an
optional probe counter, none of which belongs to one hypothesis or one
utterance, so one walk, cache and all, serves every hypothesis of every
utterance a biaser decodes: the subword biaser is a walk, the word-level biaser a
:class:`WordWalk`, and the contextual biaser races one walk per tag.  The
cache keeps live bands only, so the automaton, not the traffic, bounds its
size.  :class:`WordWalk` is the
same walk with pushing switched off, for word-boundary biasing: it differs
only in when a word's weight is paid, never in how a phrase is walked.  So
word-level, subword and contextual biasing share one phrase-level rule, and
an empty word (a delimiter right after another) is a word that matches no
arc: it fails the phrase in progress and pays back its pending weight.
:class:`Session` pairs a scorer with its current state; cloning one copies
two references, which is all beam search pays per hypothesis extension.
A biaser is its own scorer, so its session is a plain :class:`Session`.
"""

from __future__ import annotations

import bisect
import math
from enum import Enum

from .fst import WordFst

_MAX_CHAR = chr(0x10FFFF)


class ProbeCounter:
    """Counts binary-search probes, for complexity instrumentation."""

    __slots__ = ("probes",)

    def __init__(self):
        self.probes = 0


def prefix_range(words: list[str], lo: int, hi: int, prefix: str, *,
                 counter: ProbeCounter | None = None):
    """Narrow [lo, hi) to the positions whose word starts with ``prefix``.

    ``words[lo:hi]`` must be sorted, as a state's slice of an automaton's
    word column is.  Returns the (possibly empty) sub-range, which always
    satisfies lo <= lo' <= hi' <= hi.

    The words starting with ``prefix`` are exactly those in
    [prefix, successor), where the successor increments the last code point
    of ``prefix`` that is below U+10FFFF and drops the rest.  One bisect
    finds the first word at or above ``prefix``; if that word does not start
    with ``prefix``, it is also at or above the successor, so the band is
    empty and sits there.  Only a live band pays for the successor and a
    second bisect.  Without a counter the bisects compare in C; with one, a
    key function counts their probes.
    """
    if lo > hi:
        raise ValueError(f"invalid range: lo={lo} > hi={hi}")
    if not prefix:
        return lo, hi
    key = None
    if counter is not None:
        def key(word):
            counter.probes += 1
            return word
    new_lo = bisect.bisect_left(words, prefix, lo, hi, key=key)
    if new_lo == hi or not words[new_lo].startswith(prefix):
        return new_lo, new_lo
    succ = _successor(prefix)
    if succ is None:
        return new_lo, hi
    return new_lo, bisect.bisect_left(words, succ, new_lo, hi, key=key)


def _successor(prefix: str) -> str | None:
    """Least string above every string starting with ``prefix`` (None if none)."""
    stem = prefix.rstrip(_MAX_CHAR)
    if not stem:
        return None
    return stem[:-1] + chr(ord(stem[-1]) + 1)


def pushed_weight(length: int, longest: int, lookahead: float) -> float:
    """Share of ``lookahead`` owed after covering ``length`` of ``longest`` chars."""
    if longest <= 0:
        raise ValueError("longest matched word length must be positive")
    if not 1 <= length <= longest:
        raise ValueError(f"prefix length {length} outside [1, {longest}]")
    share = lookahead * length / longest
    if -math.inf < share < math.inf:
        return share
    # The product overflowed for a weight near the float limit; the share
    # itself is finite.  Only here, so no finite push rounds differently.
    return lookahead * (length / longest)


class WordOutcome(Enum):
    """What a word boundary did to a phrase walk."""

    CONTINUED = "continued"          # matched an arc into a non-final state
    COMPLETED = "completed"          # phrase done; no longer phrase continues it
    COMPLETED_OPEN = "completed_open"  # phrase done but a longer phrase continues
    FAILED = "failed"                # no match; everything unsettled was paid back


# Global loads: an Enum attribute lookup costs about ten of them per step.
_CONTINUED = WordOutcome.CONTINUED
_COMPLETED = WordOutcome.COMPLETED
_COMPLETED_OPEN = WordOutcome.COMPLETED_OPEN
_FAILED = WordOutcome.FAILED


class PhraseWalk:
    """Walks multi-word phrases over a biasing automaton, piece by piece.

    The walk is a set of pure transitions over the state tuple

        (q, prefix, lo, hi, pushed, dead, pending, banked)

    ``q`` is the automaton state the current word started from, ``prefix``
    the word's content so far and ``[lo, hi)`` the column positions of the
    band of ``q``'s arcs it still matches.  ``pushed`` is the score paid out
    for the word so far; it drops to 0.0 when the word dies, i.e. its prefix
    falls out of every arc.  ``pending`` holds arc weights of completed
    words that no final state has banked yet, and ``banked`` records that
    the walk completed a phrase.

    A failed word pays back the pending amount along with its own pushed
    weight, so any walk that never completes a phrase is score-neutral.
    After completing a phrase at a final state with outgoing arcs the walk
    greedily continues toward longer phrases; otherwise it restarts at the
    start state.  Words that miss while the walk sits at the start state cost
    nothing (the phi self-loop).  An empty word, closed with ``""`` before
    any content, matches no arc and so fails like any other miss.

    ``cache``, a dict, when given, is read and filled by every expand step,
    so a biaser's one walk shares it across all the utterances it decodes.
    It maps ``(q, prefix)`` to ``(lo, hi, pushed)`` for live bands only,
    never for a prefix that matches no arc, so it holds at most one entry
    per (state, prefix of one of that state's arc words).  Every decoding
    biaser passes one: without it, each step summarizes its band again.
    """

    __slots__ = ("fst", "cache", "counter")

    def __init__(
        self,
        fst: WordFst,
        *,
        cache: dict | None = None,
        counter: ProbeCounter | None = None,
    ):
        self.fst = fst
        self.cache = cache
        self.counter = counter

    def initial(self, q: int = 0) -> tuple:
        """The state of a walk about to read its first word from state ``q``,
        by default the start state 0."""
        fst = self.fst
        if not 0 <= q < fst.num_states:
            raise IndexError(f"state {q} out of range (0..{fst.num_states - 1})")
        return (q, "", fst.offsets[q], fst.offsets[q + 1], 0.0, False, 0.0, False)

    def open_session(self) -> Session:
        """A session scoring one hypothesis from the start state."""
        return Session(self, self.initial())

    def expand(self, state: tuple, content: str) -> tuple[float, tuple]:
        """Extend the word by a token's non-empty ``content``: ``(increment, state)``.

        A dead word scores nothing until it is closed.
        """
        q, prefix, lo, hi, pushed, dead, pending, banked = state
        if dead:
            return 0.0, state
        prefix += content
        key = (q, prefix)
        cache = self.cache
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            lo, hi, new = hit
        else:
            fst = self.fst
            lo, hi = prefix_range(fst.arc_words, lo, hi, prefix, counter=self.counter)
            if lo == hi:
                return -pushed, (q, prefix, lo, hi, 0.0, True, pending, banked)
            new = pushed_weight(len(prefix), *fst.band_summary(lo, hi))
            if cache is not None:
                cache[key] = (lo, hi, new)
        return new - pushed, (q, prefix, lo, hi, new, False, pending, banked)

    def close_word(self, state: tuple, content: str):
        """End the word alone: ``(increment, matched arc id or None, state)``.

        ``content`` is what the word-ending token adds (``er`` for ``er_``,
        ``""`` for a standalone delimiter); non-empty content first applies as
        an expand step.  An exact
        match trues the word's total up to the arc weight; a miss pays back
        what was pushed and leaves the word dead.  A word that already died
        closes as a miss with no further score.  The arc id is the matched
        arc's position in the automaton's columns.
        """
        increment = 0.0
        if content and not state[5]:
            increment, state = self.expand(state, content)
        q, prefix, lo, hi, pushed, dead, pending, banked = state
        if dead:
            return increment, None, state
        fst = self.fst
        if lo < hi and fst.arc_words[lo] == prefix:
            weight = fst.weights[lo]
            return (increment + (weight - pushed), lo,
                    (q, prefix, lo, hi, weight, False, pending, banked))
        return increment - pushed, None, (q, prefix, lo, hi, 0.0, True, pending, banked)

    def finish_word(self, state: tuple, content: str) -> tuple[float, WordOutcome, tuple]:
        """Close the word with ``content`` and step the phrase: ``(increment, outcome, state)``."""
        increment, i, state = self.close_word(state, content)
        fst = self.fst
        offsets = fst.offsets
        pending, banked = state[6], state[7]
        if i is None:
            q, outcome, increment, pending = fst.start, _FAILED, increment - pending, 0.0
        else:
            q = fst.next_state(i)
            if not fst.final[q]:
                outcome, pending = _CONTINUED, pending + fst.weights[i]
            elif offsets[q] != offsets[q + 1]:
                outcome, pending, banked = _COMPLETED_OPEN, 0.0, True
            else:
                q, outcome, pending, banked = fst.start, _COMPLETED, 0.0, True
        return (increment, outcome,
                (q, "", offsets[q], offsets[q + 1], 0.0, False, pending, banked))

    def finalize(self, state: tuple) -> tuple[float, tuple]:
        """End of stream: pay back everything no final state banked."""
        q = self.fst.start
        offsets = self.fst.offsets
        return (-state[6] - state[4],
                (q, "", offsets[q], offsets[q + 1], 0.0, False, 0.0, state[7]))


class WordWalk(PhraseWalk):
    """The phrase walk with pushing switched off: word-boundary biasing.

    Content only extends the prefix; closing the word resolves it with one
    exact lookup, so a matched word's full arc weight lands on its word end.
    The phrase step is :meth:`PhraseWalk.finish_word`'s, so an empty word
    fails the phrase here too.
    """

    __slots__ = ()

    def expand(self, state, content):
        q, prefix, lo, hi, pushed, dead, pending, banked = state
        return 0.0, (q, prefix + content, lo, hi, pushed, dead, pending, banked)

    def close_word(self, state, content):
        q, prefix, lo, hi, pushed, dead, pending, banked = state
        word = prefix + content
        i = self.fst.arc_id(q, word)
        if i is None:
            return 0.0, None, (q, word, lo, hi, 0.0, True, pending, banked)
        weight = self.fst.weights[i]
        return weight, i, (q, word, lo, hi, weight, False, pending, banked)


_new = object.__new__


class Session:
    """A scorer and its current state: the one mutable biasing session.

    The scorer (a :class:`PhraseWalk`, a :class:`WordWalk` or a contextual
    biaser, each its own set of transitions) is shared and never changes;
    each method replaces ``state`` with the transition's result and returns
    the score increment.  A clone copies the two references, so clones are
    independent at no further cost.
    """

    __slots__ = ("scorer", "state")

    def __init__(self, scorer, state: tuple):
        self.scorer = scorer
        self.state = state

    def clone(self):
        s = _new(type(self))
        s.scorer = self.scorer
        s.state = self.state
        return s

    def expand(self, content: str) -> float:
        increment, self.state = self.scorer.expand(self.state, content)
        return increment

    def finish_word(self, content: str) -> float:
        increment, _, self.state = self.scorer.finish_word(self.state, content)
        return increment

    def finalize(self) -> float:
        increment, self.state = self.scorer.finalize(self.state)
        return increment


class ExpandSession(Session):
    """A :class:`PhraseWalk` session from state ``q`` that shows when its word
    died: the benchmark's cold probes score through it."""

    __slots__ = ()

    def __init__(self, fst: WordFst, q: int, *, cache: dict | None = None,
                 counter: ProbeCounter | None = None):
        walk = PhraseWalk(fst, cache=cache, counter=counter)
        Session.__init__(self, walk, walk.initial(q))

    @property
    def dead(self) -> bool:
        return self.state[5]


open_session = ExpandSession  # the name the benchmark calls
