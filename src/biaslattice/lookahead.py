"""On-the-fly subword scoring over word-level biasing automata.

Biasing models stay at the word level; this module applies them while a
decoder emits subword tokens, without ever materializing a subword-level
automaton.  As tokens extend the current word prefix, binary search narrows
the band of arcs compatible with the prefix.  After each token the session
has "pushed" a share of the strongest reachable arc weight, proportional to
how much of the longest candidate word the prefix covers:

    pushed = lookahead * len(prefix) / max_word_len_in_band

and it emits the difference from the previously pushed amount.  Completing a
word trues the running total up to the matched arc's exact weight, so the
net score of any full word equals its word-level arc weight regardless of
segmentation.  A prefix that stops matching pays back everything pushed for
it (the fallback), so abandoned prefixes are score-neutral.

Worked example, catalog {play, player, playground} all at weight -8,
token stream ``pl ay er_``:

    pl      band=3 arcs  len=2 of 10   pushed -1.6   increment -1.6
    ay      band=3 arcs  len=4 of 10   pushed -3.2   increment -1.6
    er_     band=1 arc   exact match "player", arc weight -8: increment -4.8

Increments sum to -8, the word-level weight of "player".

A step that misses the cache costs two C-level bisects over the state's
sorted words plus :meth:`WordFst.band_summary`, which finds the band's
longest word and strongest weight in O(B + band/B) for the automaton's
block size B.  No step scans the band in Python.

:class:`ExpandSession` scores a single word from a fixed automaton state;
:class:`PhraseSession` chains sessions along multi-word phrases and handles
completion, restart, and end-of-stream cleanup.  Sessions are single-threaded
and cheap to clone; many sessions may share one immutable automaton and one
cache.
"""

from __future__ import annotations

import bisect
from enum import Enum

from .fst import DEFAULT_DELIMITER, WordFst

_MAX_CHAR = chr(0x10FFFF)

# A cache maps (state, prefix) -> (lo, hi, longest, lookahead) so repeated
# walks over popular prefixes skip the two bisects and the band summary.
# Scope a cache to one decode session; it is keyed on state ids of a single
# automaton.
LookaheadCache = dict


class ProbeCounter:
    """Counts binary-search probes, for complexity instrumentation."""

    __slots__ = ("probes",)

    def __init__(self):
        self.probes = 0


def prefix_range(arcs, lo: int, hi: int, prefix: str, *, counter: ProbeCounter | None = None):
    """Narrow [lo, hi) to the entries whose input word starts with ``prefix``.

    ``arcs`` may hold plain strings or :class:`~biaslattice.fst.Arc` tuples;
    it must be sorted by word.  Returns the (possibly empty) sub-range, which
    always satisfies lo <= lo' <= hi' <= hi.

    The entries starting with ``prefix`` are exactly those in
    [prefix, successor), where the successor increments the last code point
    of ``prefix`` that is below U+10FFFF and drops the rest, so two bisects
    find them.  Plain strings without a counter are compared directly, in C;
    otherwise a key function reads the word and ``counter`` counts the probes.
    """
    if lo > hi:
        raise ValueError(f"invalid range: lo={lo} > hi={hi}")
    if not prefix:
        return lo, hi
    key = None
    if counter is not None or (lo < hi and not isinstance(arcs[lo], str)):
        def key(a):
            if counter is not None:
                counter.probes += 1
            return a if isinstance(a, str) else a[0]
    new_lo = bisect.bisect_left(arcs, prefix, lo, hi, key=key)
    succ = _successor(prefix)
    if succ is None:
        return new_lo, hi
    return new_lo, bisect.bisect_left(arcs, succ, new_lo, hi, key=key)


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
    return lookahead * length / longest


class ExpandSession:
    """Incremental scorer for one word's subword tokens from a fixed state.

    Feed content tokens to :meth:`expand` and the word-final delimiter token
    (standalone or fused) to :meth:`finish_word`.  ``emitted`` always equals
    the cumulative weight paid out so far for this word.  Once the prefix
    stops matching the session is dead for the word: the fallback increment
    has already been returned and later tokens are rejected.
    """

    __slots__ = (
        "fst", "state", "delimiter", "cache", "counter", "trace",
        "prefix", "lo", "hi", "w_prev", "emitted", "dead", "finished",
    )

    def __init__(
        self,
        fst: WordFst,
        state: int,
        *,
        delimiter: str = DEFAULT_DELIMITER,
        cache: LookaheadCache | None = None,
        counter: ProbeCounter | None = None,
        trace: list | None = None,
    ):
        if not 0 <= state < fst.num_states:
            raise IndexError(f"state {state} out of range (0..{fst.num_states - 1})")
        self.fst = fst
        self.state = state
        self.delimiter = delimiter
        self.cache = cache
        self.counter = counter
        self.trace = trace
        self.prefix = ""
        self.lo = 0
        self.hi = len(fst.arcs[state])
        self.w_prev = 0.0
        self.emitted = 0.0
        self.dead = False
        self.finished = False

    def clone(self) -> "ExpandSession":
        s = ExpandSession.__new__(ExpandSession)
        s.fst = self.fst
        s.state = self.state
        s.delimiter = self.delimiter
        s.cache = self.cache
        s.counter = self.counter
        s.trace = None  # traces are not carried across clones
        s.prefix = self.prefix
        s.lo = self.lo
        s.hi = self.hi
        s.w_prev = self.w_prev
        s.emitted = self.emitted
        s.dead = self.dead
        s.finished = self.finished
        return s

    @property
    def range(self) -> tuple[int, int]:
        return self.lo, self.hi

    def expand(self, subword: str) -> float:
        """Extend the prefix by one content token; returns the score increment."""
        if self.finished:
            raise ValueError("word already finished; open a new session")
        if self.dead:
            raise ValueError("session is dead for this word (prefix fell out)")
        if not subword:
            raise ValueError("empty subword")
        if subword.endswith(self.delimiter):
            raise ValueError(f"{subword!r} is a delimiter token; use finish_word")

        self.prefix += subword
        key = (self.state, self.prefix)
        hit = self.cache.get(key) if self.cache is not None else None
        if hit is None:
            lo, hi = prefix_range(
                self.fst.words[self.state], self.lo, self.hi, self.prefix,
                counter=self.counter,
            )
            if lo < hi:
                hit = (lo, hi) + self.fst.band_summary(self.state, lo, hi)
            else:
                hit = (lo, hi, 0, 0.0)
            if self.cache is not None:
                self.cache[key] = hit
        lo, hi, longest, lookahead = hit
        self.lo = lo
        self.hi = hi
        if lo == hi:
            increment = -self.emitted
            self.emitted = 0.0
            self.dead = True
            self._record(increment, None, None)
            return increment
        pushed = pushed_weight(len(self.prefix), longest, lookahead)
        increment = pushed - self.w_prev
        self.w_prev = pushed
        self.emitted = pushed
        self._record(increment, longest, lookahead)
        return increment

    def finish_word(self, token: str) -> tuple[float, int | None]:
        """Close the word with a delimiter-bearing token.

        A fused token (``er_``) first applies its content as an expand step.
        If the accumulated prefix exactly matches an arc's word, the increment
        trues the total up to the arc weight and the arc's destination state
        is returned; otherwise the fallback increment restores neutrality and
        None marks the miss.  A session that already fell back finishes as a
        miss with no further score.
        """
        if self.finished:
            raise ValueError("word already finished; open a new session")
        d = self.delimiter
        if token == d:
            content = ""
        elif token.endswith(d):
            content = token[: -len(d)]
            if not content or d in content:
                raise ValueError(f"malformed fused delimiter token {token!r}")
        else:
            raise ValueError(f"{token!r} does not carry the delimiter {d!r}")

        increment = 0.0
        if content and not self.dead:
            increment = self.expand(content)
        self.finished = True
        if self.dead:
            return increment, None

        words = self.fst.words[self.state]
        if self.lo < self.hi and words[self.lo] == self.prefix:
            arc = self.fst.arcs[self.state][self.lo]
            step = arc.weight - self.w_prev
            self.w_prev = arc.weight
            self.emitted = arc.weight
            self._record(step, None, arc.weight, matched=arc.word)
            return increment + step, arc.nextstate
        step = -self.emitted
        self.emitted = 0.0
        self.dead = True
        self._record(step, None, None)
        return increment + step, None

    def fallback_weight(self) -> float:
        """The correction that would zero everything emitted so far."""
        return -self.emitted

    def _record(self, increment, longest, lookahead, matched=None):
        if self.trace is None:
            return
        self.trace.append(
            {
                "prefix": self.prefix,
                "range": (self.lo, self.hi),
                "length": len(self.prefix),
                "longest": longest,
                "lookahead": lookahead,
                "pushed": self.w_prev if not self.dead else None,
                "increment": increment,
                "matched": matched,
            }
        )


def open_session(fst: WordFst, state: int, **kwargs) -> ExpandSession:
    """Start scoring one word from ``state`` (kwargs as for ExpandSession)."""
    return ExpandSession(fst, state, **kwargs)


class WordOutcome(Enum):
    """What a word boundary did to a phrase walk."""

    CONTINUED = "continued"          # matched an arc into a non-final state
    COMPLETED = "completed"          # phrase done; no longer phrase continues it
    COMPLETED_OPEN = "completed_open"  # phrase done but a longer phrase continues
    FAILED = "failed"                # no match; everything unsettled was paid back


class PhraseSession:
    """Walks multi-word phrases over a biasing automaton, token by token.

    Wraps one :class:`ExpandSession` per word and carries phrase-level state:
    arc weights of completed words stay "pending" until a final state banks
    them, and a failed word pays back the pending amount along with its own
    pushed weight, so any walk that never completes a phrase is score-neutral.
    After completing a phrase at a final state with outgoing arcs the walk
    greedily continues toward longer phrases; otherwise it restarts at the
    start state.  Words that miss while the walk sits at the start state cost
    nothing (the phi self-loop).
    """

    __slots__ = ("fst", "delimiter", "cache", "counter", "state", "word",
                 "pending", "phrases_done", "last_final")

    def __init__(
        self,
        fst: WordFst,
        *,
        delimiter: str = DEFAULT_DELIMITER,
        cache: LookaheadCache | None = None,
        counter: ProbeCounter | None = None,
        state: int | None = None,
    ):
        self.fst = fst
        self.delimiter = delimiter
        self.cache = cache
        self.counter = counter
        self.state = fst.start if state is None else state
        self.word = ExpandSession(
            fst, self.state, delimiter=delimiter, cache=cache, counter=counter
        )
        self.pending = 0.0
        self.phrases_done = 0
        self.last_final: int | None = None

    def clone(self) -> "PhraseSession":
        s = PhraseSession.__new__(PhraseSession)
        s.fst = self.fst
        s.delimiter = self.delimiter
        s.cache = self.cache
        s.counter = self.counter
        s.state = self.state
        s.word = self.word.clone()
        s.pending = self.pending
        s.phrases_done = self.phrases_done
        s.last_final = self.last_final
        return s

    @property
    def emitted(self) -> float:
        """Unsettled score paid out so far (pending arcs + current pushes)."""
        return self.pending + self.word.emitted

    def expand(self, subword: str) -> float:
        if self.word.dead:
            return 0.0  # word already failed; remaining tokens score nothing
        return self.word.expand(subword)

    def finish_word(self, token: str) -> tuple[float, WordOutcome]:
        if self.word.dead:
            self.word.finished = True
            increment, matched = 0.0, None
        else:
            increment, matched = self.word.finish_word(token)
        if matched is None:
            increment += -self.pending
            self.pending = 0.0
            self.state = self.fst.start
            outcome = WordOutcome.FAILED
        else:
            self.pending += self.word.emitted
            if matched in self.fst.finals:
                self.pending = 0.0
                self.phrases_done += 1
                self.last_final = matched
                if self.fst.arcs[matched]:
                    self.state = matched
                    outcome = WordOutcome.COMPLETED_OPEN
                else:
                    self.state = self.fst.start
                    outcome = WordOutcome.COMPLETED
            else:
                self.state = matched
                outcome = WordOutcome.CONTINUED
        self.word = ExpandSession(
            self.fst, self.state, delimiter=self.delimiter,
            cache=self.cache, counter=self.counter,
        )
        return increment, outcome

    def finalize(self) -> float:
        """End-of-stream correction: pay back anything not banked by a final."""
        increment = -self.pending
        if not self.word.dead:
            increment += self.word.fallback_weight()
        self.pending = 0.0
        self.state = self.fst.start
        self.word = ExpandSession(
            self.fst, self.state, delimiter=self.delimiter,
            cache=self.cache, counter=self.counter,
        )
        return increment
