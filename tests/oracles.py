"""Independent reference implementations used only to check the package.

Everything here is written the slow, obvious way (linear scans, plain
recursion, full enumeration) and deliberately shares no code with the
package modules it checks; only the reference beam search, automaton
builder and automaton reader reuse the package's value types, the beam
search its oracle check, and the tag-race reference the phrase walk it
races.
"""

from __future__ import annotations

import itertools
import math
import struct
from array import array
from collections import Counter, defaultdict, deque
from typing import Iterable

from biaslattice.decode import END, Hypothesis, NBestList, NullBiaser, _check_normalized, fuse_step
from biaslattice.errors import InputFormatError
from biaslattice.context import Span, parse_annotated
from biaslattice.fst import CatalogEntry, CatalogError, WordFst
from biaslattice.lm import EOS_WORD, NGramLM
from biaslattice.lookahead import PhraseWalk, WordOutcome
from biaslattice.wordpiece import DEFAULT_DELIMITER, detokenize


# -- tries ----------------------------------------------------------------------


def trie_arc_count(phrases: list[tuple[str, ...]]) -> int:
    """Number of distinct (word-prefix, next-word) pairs over all phrases."""
    pairs = set()
    for phrase in phrases:
        for i in range(len(phrase)):
            pairs.add((phrase[:i], phrase[i]))
    return len(pairs)


def linear_prefix_filter(words, lo: int, hi: int, prefix: str) -> tuple[int, int]:
    """Range of sorted ``words[lo:hi]`` starting with ``prefix``, by linear scan."""
    hits = [i for i in range(lo, hi) if words[i].startswith(prefix)]
    if not hits:
        # An empty range; place it where the prefix would insert.
        pos = lo
        while pos < hi and words[pos] < prefix:
            pos += 1
        return pos, pos
    return hits[0], hits[-1] + 1


# -- lookahead weight pushing -----------------------------------------------------


def band_scan(words, weights, lo: int, hi: int) -> tuple[int, float]:
    """(longest word, first minimum weight) of positions ``[lo, hi)``, left to right."""
    longest = 0
    best = None
    for word, weight in zip(words[lo:hi], weights[lo:hi]):
        longest = max(longest, len(word))
        if best is None or weight < best:
            best = weight
    return longest, best


def pushed_profile(catalog: list[tuple[str, float]], chunks: list[str]):
    """Per-chunk score increments for one word, recomputed from scratch.

    ``catalog`` holds (word, full-word weight) pairs from a single state.
    Returns (increments, final_increment, matched) where ``increments`` has
    one entry per content chunk and ``final_increment`` settles the word at
    its delimiter: the exact word weight on a match, or a correction making
    the total zero on a miss.
    """
    increments = []
    prev = 0.0
    prefix = ""
    alive = True
    for chunk in chunks:
        if not alive:
            increments.append(0.0)
            continue
        prefix += chunk
        matched = [(w, wt) for w, wt in catalog if w.startswith(prefix)]
        if not matched:
            increments.append(-prev)
            prev = 0.0
            alive = False
            continue
        longest = max(len(w) for w, _ in matched)
        strongest = min(wt for _, wt in matched)
        pushed = strongest * len(prefix) / longest
        increments.append(pushed - prev)
        prev = pushed
    if not alive:
        return increments, 0.0, False
    exact = [wt for w, wt in catalog if w == prefix]
    if exact:
        return increments, exact[0] - prev, True
    return increments, -prev, False


def all_chunkings(word: str, limit: int = 200):
    """Every way to split ``word`` into non-empty contiguous chunks."""
    n = len(word)
    out = []
    for cuts in itertools.product([False, True], repeat=n - 1):
        chunks = []
        start = 0
        for i, cut in enumerate(cuts, 1):
            if cut:
                chunks.append(word[start:i])
                start = i
        chunks.append(word[start:])
        out.append(chunks)
        if len(out) >= limit:
            break
    return out


class SubwordTrie:
    """Fully materialized subword-level view of a one-state-deep catalog.

    Precomputes the pushed cumulative weight for every character prefix of
    every catalog word by linear scan, which is the entire subword trie with
    its transition weights.  ``path_weight`` then just walks stored states.
    """

    def __init__(self, catalog: list[tuple[str, float]]):
        self.catalog = list(catalog)
        self.exact = dict(catalog)
        self.pushed = {"": 0.0}
        for word, _ in catalog:
            for i in range(1, len(word) + 1):
                prefix = word[:i]
                if prefix in self.pushed:
                    continue
                matched = [(w, wt) for w, wt in catalog if w.startswith(prefix)]
                longest = max(len(w) for w, _ in matched)
                strongest = min(wt for _, wt in matched)
                self.pushed[prefix] = strongest * len(prefix) / longest

    def path_weight(self, chunks: list[str]) -> tuple[list[float], float, bool]:
        """Arc weights along a chunk path plus the word-final settlement."""
        weights = []
        prefix = ""
        alive = True
        for chunk in chunks:
            if not alive:
                weights.append(0.0)
                continue
            nxt = prefix + chunk
            if nxt in self.pushed:
                weights.append(self.pushed[nxt] - self.pushed[prefix])
                prefix = nxt
            else:
                weights.append(-self.pushed[prefix])  # fallback arc
                alive = False
        if not alive:
            return weights, 0.0, False
        if prefix in self.exact:
            return weights, self.exact[prefix] - self.pushed[prefix], True
        return weights, -self.pushed[prefix], False


# -- edit distance ----------------------------------------------------------------


def edit_distance(a, b) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


# -- interpolated Kneser-Ney, direct recursive form --------------------------------

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


class RefKN:
    """Direct recursive interpolated KN calculator over raw count tables."""

    def __init__(self, sentences: list[list[str]], order: int):
        self.order = order
        self.vocab = sorted({t for s in sentences for t in s} | {EOS, UNK})
        self.raw = {k: Counter() for k in range(1, order + 1)}
        for sent in sentences:
            padded = [BOS] * (order - 1) + list(sent) + [EOS]
            for k in range(1, order + 1):
                for i in range(len(padded) - k + 1):
                    gram = tuple(padded[i : i + k])
                    if gram[-1] != BOS:
                        self.raw[k][gram] += 1
        # Count system per order: raw at the top, continuation counts below.
        self.counts = {order: dict(self.raw[order])}
        for k in range(1, order):
            cont = Counter()
            for gram in self.raw[k + 1]:
                cont[gram[1:]] += 1
            self.counts[k] = dict(cont)
        self.discount = {}
        for k in range(1, order + 1):
            n1 = sum(1 for c in self.counts[k].values() if c == 1)
            n2 = sum(1 for c in self.counts[k].values() if c == 2)
            self.discount[k] = n1 / (n1 + 2.0 * n2) if n1 > 0 else 0.5

    def prob(self, context: tuple[str, ...], token: str) -> float:
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self._p(len(context) + 1, context, token)

    def _p(self, k: int, ctx: tuple[str, ...], token: str) -> float:
        if k == 0:
            return 1.0 / len(self.vocab)
        counts = self.counts[k]
        denom = sum(c for g, c in counts.items() if g[:-1] == ctx)
        if denom == 0:
            return self._p(k - 1, ctx[1:], token)
        d = self.discount[k]
        types = sum(1 for g in counts if g[:-1] == ctx)
        c = counts.get(ctx + (token,), 0)
        return max(c - d, 0.0) / denom + (d * types / denom) * self._p(k - 1, ctx[1:], token)

    def sentence_logprob(self, words: list[str]) -> float:
        ctx = (BOS,) * (self.order - 1)
        total = 0.0
        for w in words:
            tok = w if w in self.vocab else UNK
            total += math.log(self.prob(ctx, tok))
            ctx = (ctx + (tok,))[-(self.order - 1):] if self.order > 1 else ()
        return total + math.log(self.prob(ctx, EOS))


# -- beam search, one clone and one fuse_step per candidate --------------------------
#
# The beam search loop as it stood before per-step work was hoisted out of it:
# one oracle call per live hypothesis, one session clone per candidate, and a
# sort key that re-runs fuse_step.  It reuses the package's value types, its
# oracle check and fuse_step, none of which that rewrite changed.


class _Beam:
    __slots__ = ("tokens", "rnnt", "sf", "session")

    def __init__(self, tokens, rnnt, sf, session):
        self.tokens = tokens
        self.rnnt = rnnt
        self.sf = sf
        self.session = session


def reference_beam_search(
    oracle,
    biaser,
    vocab,
    lam: float,
    beam_size: int = 16,
    n_best: int = 8,
    *,
    utt_id: str = "utt-0",
    ref: str = "",
    max_steps: int = 512,
):
    if n_best < 1 or beam_size < n_best:
        raise ValueError(f"need beam_size >= n_best >= 1, got {beam_size}, {n_best}")
    if not vocab.pieces:
        raise ValueError("empty vocabulary")
    if biaser is None:
        biaser = NullBiaser()
    live = [_Beam((), 0.0, 0.0, biaser.open_session())]
    done: list[_Beam] = []
    for _ in range(max_steps):
        if not live:
            break
        extended: list[_Beam] = []
        for beam in live:
            scores = oracle.score(utt_id, beam.tokens)
            _check_normalized(scores, utt_id)
            for token in sorted(scores):
                logp = scores[token]
                session = beam.session.clone()
                if token == END:
                    increment = session.finalize()
                    done.append(
                        _Beam(beam.tokens, beam.rnnt + logp, beam.sf + increment, session)
                    )
                    continue
                if token.endswith(vocab.delimiter):
                    increment = session.finish_word(token[: -len(vocab.delimiter)])
                else:
                    increment = session.expand(token)
                extended.append(
                    _Beam(
                        beam.tokens + (token,),
                        beam.rnnt + logp,
                        beam.sf + increment,
                        session,
                    )
                )
        extended.sort(key=lambda b: (-fuse_step(b.rnnt, b.sf, lam), b.tokens))
        live = extended[:beam_size]
    else:
        # Step cap reached: settle whatever is still on the beam.
        for beam in live:
            beam.sf += beam.session.finalize()
            done.append(beam)
    done.sort(key=lambda b: (-fuse_step(b.rnnt, b.sf, lam), b.tokens))
    hyps = [
        Hypothesis(
            tokens=b.tokens,
            text=detokenize(vocab, b.tokens),
            rnnt_logp=b.rnnt,
            sf_score=b.sf,
            fused=fuse_step(b.rnnt, b.sf, lam),
        )
        for b in done[:n_best]
    ]
    return NBestList(utt_id=utt_id, ref=ref, lam=lam, hyps=hyps)


# -- contextual tag race, defined cumulatively ------------------------------------
#
# The race among the class tags one template position offers, written from its
# definition instead of the contextual biaser's running bookkeeping: each tag's
# PhraseWalk runs alone over the race's span and keeps its own total, and the
# race's total is read off those totals.  "Best" is the least total, the
# convention the contextual biaser uses.


def reference_tag_race(
    fsts: dict[str, WordFst], tokens: list[str], delimiter: str = DEFAULT_DELIMITER
) -> list[float]:
    """Running biasing total after each token, and last after end of stream,
    under a template whose start state offers exactly the tags of ``fsts``
    and leads nowhere further.

    A race opens at a non-empty word and runs every tag's walk alone.  While
    tags are alive (no word has failed them) its total is the best alive
    total.  A word that completes some tags' phrases settles it at the best
    completed total; once every tag has failed it settles at the best total
    of a failed tag that had banked a phrase (a word completed it while a
    longer phrase stayed open), or 0.  The next non-empty word opens a new
    race.  End of stream ends every alive tag's walk, and a tag that banked
    a phrase counts as a banked failure.
    """
    walks = {tag: PhraseWalk(fst) for tag, fst in fsts.items()}
    settled = 0.0
    alive = None  # tag -> [walk state, total, banked] while a race is open
    dropped: list[float] = []
    out = []
    for token in tokens:
        if alive is None and token != delimiter:
            alive = {tag: [walk.initial(), 0.0, False] for tag, walk in walks.items()}
            dropped = []
        if alive is None:
            out.append(settled)
            continue
        completed = []
        for tag, run in list(alive.items()):
            if not token.endswith(delimiter):
                increment, run[0] = walks[tag].expand(run[0], token)
                run[1] += increment
                continue
            increment, outcome, run[0] = walks[tag].finish_word(
                run[0], token[: -len(delimiter)])
            run[1] += increment
            if outcome is WordOutcome.COMPLETED:
                completed.append(run[1])
            elif outcome is WordOutcome.COMPLETED_OPEN:
                run[2] = True
            elif outcome is WordOutcome.FAILED:
                del alive[tag]
                if run[2]:
                    dropped.append(run[1])
        if completed or not alive:
            settled += min(completed or dropped, default=0.0)
            alive = None
            out.append(settled)
        else:
            out.append(settled + min(run[1] for run in alive.values()))
    if alive is not None:
        for tag, (state, total, banked) in alive.items():
            if banked:
                dropped.append(total + walks[tag].finalize(state)[0])
        settled += min(dropped, default=0.0)
    out.append(settled)
    return out


# -- automata, built by hand -------------------------------------------------------
#
# States are numbered level by level, so arc i enters state i + 1: the arcs
# below give no next state, and the readers here take it as i + 1.


def hand_fst(*, finals: Iterable[int], arcs: Iterable[Iterable[tuple[str, float]]]) -> WordFst:
    """The automaton of per-state ``(word, weight)`` lists and the final
    states, unchecked, so malformed automata can be made too.  A final state
    past the last state lengthens the final column, so that ``validate_fst``
    can name it."""
    arc_words, weights, offsets = [], array("d"), array("I", [0])
    for state_arcs in arcs:
        for word, weight in state_arcs:
            arc_words.append(word)
            weights.append(weight)
        offsets.append(len(arc_words))
    final = bytearray(len(offsets) - 1)
    for s in finals:
        if s >= len(final):
            final.extend(bytes(s + 1 - len(final)))
        final[s] = 1
    return WordFst(final=bytes(final), offsets=offsets, arc_words=arc_words, weights=weights)


# -- catalog automata, built through an object trie ------------------------------
#
# The builder as it stood before the sorted-path construction, one node object
# per state, except that a first-in first-out walk over sorted edges numbers
# the states level by level, as the package's builder now does.


class _Node:
    __slots__ = ("edges", "final")

    def __init__(self):
        self.edges: dict[str, tuple[float, "_Node"]] = {}
        self.final = False


def reference_build_catalog_fst(entries: Iterable[CatalogEntry]) -> WordFst:
    entries = list(entries)
    if not entries:
        raise CatalogError("catalog is empty")
    seen: set[tuple[str, ...]] = set()
    root = _Node()
    for entry in entries:
        if entry.phrase in seen:
            raise CatalogError(f"duplicate catalog phrase: {entry.text!r}")
        seen.add(entry.phrase)
        node = root
        for word in entry.phrase:
            edge = node.edges.get(word)
            if edge is None:
                child = _Node()
                node.edges[word] = (entry.weight, child)
            else:
                weight, child = edge
                if weight != entry.weight:
                    raise CatalogError(
                        f"conflicting weights {weight} vs {entry.weight} on shared "
                        f"prefix arc {word!r} (phrase {entry.text!r})"
                    )
            node = node.edges[word][1]
        node.final = True

    # Deterministic numbering: first-in first-out walk with edges in sorted
    # order, so the child of the arc at position i is the (i + 1)-th state.
    order: list[_Node] = []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        order.append(node)
        for word in sorted(node.edges):
            queue.append(node.edges[word][1])

    arcs = [[(word, node.edges[word][0]) for word in sorted(node.edges)] for node in order]
    finals = [s for s, node in enumerate(order) if node.final]
    return hand_fst(finals=finals, arcs=arcs)


# -- automata, read state by state ------------------------------------------------


def phrase_end(fst: WordFst, phrase: Iterable[str]) -> tuple[int, float] | None:
    """``(end state, summed weight)`` of ``phrase`` walked from the start
    state, each word found by a linear scan of the state's arcs, or None if
    some word has no arc."""
    state, total = 0, 0.0
    for word in phrase:
        hits = [i for i in _positions(fst, state) if fst.arc_words[i] == word]
        if not hits:
            return None
        total += fst.weights[hits[0]]
        state = hits[0] + 1
    return state, total


def _positions(fst: WordFst, state: int) -> range:
    return range(fst.offsets[state], fst.offsets[state + 1])


def _state_arcs(fst: WordFst, state: int) -> list[tuple[str, float, int]]:
    return [(fst.arc_words[i], fst.weights[i], i + 1) for i in _positions(fst, state)]


# -- automaton checks, state by state ---------------------------------------------
#
# The structural checks as one loop per state, in the order whose first
# violation the package reports; reachability is a plain graph walk from
# the start state 0, which must exist.


def reference_validate(fst: WordFst) -> None:
    n = fst.num_states
    finals = {s for s, flag in enumerate(fst.final) if flag}
    if n == 0:
        raise ValueError("start state 0 out of range")
    for s in range(n):
        arcs = _state_arcs(fst, s)
        prev = ""
        for word, weight, nextstate in arcs:
            if not word:
                raise ValueError(f"state {s}: empty arc word")
            if word <= prev:
                raise ValueError(f"state {s}: arcs not strictly sorted at {word!r}")
            if not math.isfinite(weight):
                raise ValueError(f"state {s}: non-finite weight on {word!r}")
            if nextstate >= n:
                raise ValueError(f"state {s}: next state {nextstate} out of range")
            prev = word
        if fst.final[s] > 1:
            raise ValueError(f"state {s}: unknown flags {fst.final[s]:#x}")
        if not arcs and s not in finals and s != 0:
            raise ValueError(f"state {s} is a non-final dead end")
    for s in finals:
        if not 0 <= s < n:
            raise ValueError(f"state {s} out of range")
    seen = {0}
    frontier = [0]
    while frontier:
        for _, _, nextstate in _state_arcs(fst, frontier.pop()):
            if nextstate not in seen:
                seen.add(nextstate)
                frontier.append(nextstate)
    if len(seen) < n:
        raise ValueError(f"{n - len(seen)} states unreachable from start")


# -- BLFST3 automata, read element by element -------------------------------------
#
# The columnar format read one struct unpack per value into per-state arc
# lists, with the package's error messages and their precedence.  It keeps
# its own copy of the format constants.

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")


def reference_deserialize_columnar(data: bytes) -> WordFst:
    """The automaton of ``BLFST3`` bytes."""
    for retired in b"BLFST1", b"BLFST2":
        if data[:6] == retired:
            raise InputFormatError(f"{retired.decode()} automata are no longer read; "
                                   "rebuild with `biaslattice build-fst`")
    if data[:6] != b"BLFST3":
        raise InputFormatError("bad magic: not a serialized biasing automaton")
    need = 18
    if len(data) >= need:
        n, start, num_arcs = struct.unpack_from("<III", data, 6)
        blob_at = need + n + 4 * (n + 1) + 8 * num_arcs
        need = blob_at + 4
        if len(data) >= need:
            need += _U32.unpack_from(data, blob_at)[0]
    if len(data) < need:
        raise InputFormatError(
            f"truncated automaton: ends at offset {len(data)}, needed {need} bytes"
        )
    if len(data) > need:
        raise InputFormatError(f"{len(data) - need} trailing bytes at offset {need}")
    if start != 0:
        raise InputFormatError(f"start state {start} is not state 0, the one no arc enters")
    for s in range(n):
        if data[18 + s] > 1:
            raise InputFormatError(
                f"unknown state flags {data[18 + s]:#x} at offset {18 + s}"
            )
    at = 18 + n
    offsets = [_U32.unpack_from(data, at + 4 * i)[0] for i in range(n + 1)]
    at += 4 * (n + 1)
    weights = [_F64.unpack_from(data, at + 8 * i)[0] for i in range(num_arcs)]
    raw = data[blob_at + 4 :]
    words = []
    for piece in raw.split(b"\n") if raw or num_arcs else []:
        try:
            words.append(piece.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"invalid UTF-8 at offset {len(data) - len(raw) + exc.start}"
            ) from None
        raw = raw[len(piece) + 1 :]
    if len(words) != num_arcs:
        raise InputFormatError(f"{len(words)} arc words for {num_arcs} arcs")
    if offsets[0] != 0 or offsets[n] != num_arcs:
        raise InputFormatError(
            f"malformed automaton: arc offsets run {offsets[0]}..{offsets[n]}, not 0..{num_arcs}"
        )
    for s in range(n):
        if offsets[s] > offsets[s + 1]:
            raise InputFormatError(f"malformed automaton: state {s}: arc offsets decrease")
    fst = hand_fst(
        finals={s for s in range(n) if data[18 + s]},
        arcs=[[(words[i], weights[i]) for i in range(offsets[s], offsets[s + 1])]
              for s in range(n)],
    )
    try:
        reference_validate(fst)
    except ValueError as exc:
        raise InputFormatError(f"malformed automaton: {exc}") from None
    return fst


# -- Kneser-Ney training, one line at a time --------------------------------------
#
# ``train_kn_lm`` as it stood before it trained each distinct line once: it
# parses and counts every line, and takes a tag's member total once per
# member.  Copied verbatim but for its name; it reuses the package's model
# type, its span parser and its special tokens.


def _substitute(tokens: list) -> tuple[list[str], list[tuple[str, str]]]:
    """Replace spans by one tag token per spanned word; collect members."""
    out: list[str] = []
    members: list[tuple[str, str]] = []
    for tok in tokens:
        if isinstance(tok, Span):
            for word in tok.words:
                out.append(tok.tag)
                members.append((tok.tag, word))
        else:
            out.append(tok)
    return out, members


def reference_train_kn_lm(
    lines: Iterable[str], order: int = 4, *, source: str = "<corpus>"
) -> NGramLM:
    """Train an interpolated Kneser-Ney model on (optionally annotated) text.

    ``lines`` hold whitespace-separated tokens; spans written
    ``@tag(word ...)`` become class tags in the token stream and their words
    become class members.  The model holds log10 values, as its files do.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sequences: list[list[str]] = []
    member_counts: dict[str, Counter[str]] = defaultdict(Counter)
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip().lower()
        if not line or line.startswith("#"):
            continue
        tokens = parse_annotated(line, where=f"{source}:{lineno}")
        seq, members = _substitute(tokens)
        if seq:
            sequences.append(seq)
            for tag, word in members:
                member_counts[tag][word] += 1
    if not sequences:
        raise InputFormatError(f"{source}: empty training corpus")

    vocab = {tok for seq in sequences for tok in seq} | {EOS_WORD, UNK}

    # Raw gram inventories over BOS-padded sequences; grams ending in the
    # padding symbol are never predicted and are excluded everywhere.
    raw_n: Counter[tuple[str, ...]] = Counter()
    raw_sets: dict[int, set[tuple[str, ...]]] = {k: set() for k in range(2, order + 1)}
    for seq in sequences:
        padded = [BOS] * (order - 1) + seq + [EOS_WORD]
        for k in range(2, order + 1):
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i : i + k])
                if gram[-1] != BOS:
                    raw_sets[k].add(gram)
        for i in range(len(padded) - order + 1):
            gram = tuple(padded[i : i + order])
            if gram[-1] != BOS:
                raw_n[gram] += 1

    # Count system per order: raw counts at the top, continuation counts
    # (distinct left extensions) below.
    systems: dict[int, Counter[tuple[str, ...]]] = {order: raw_n}
    for k in range(1, order):
        cont: Counter[tuple[str, ...]] = Counter()
        for gram in raw_sets[k + 1]:
            cont[gram[1:]] += 1
        systems[k] = cont

    logprobs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    uniform = 1.0 / len(vocab)

    def lower_prob(context: tuple[str, ...], token: str) -> float:
        # Linear-domain eval against the tables built so far.
        ctx = context
        scale = 1.0
        while True:
            p = logprobs.get(ctx + (token,))
            if p is not None:
                return scale * 10.0 ** p
            if not ctx:
                return scale * uniform
            scale *= 10.0 ** backoffs.get(ctx, 0.0)
            ctx = ctx[1:]

    for k in range(1, order + 1):
        counts = systems[k]
        n1 = sum(1 for c in counts.values() if c == 1)
        n2 = sum(1 for c in counts.values() if c == 2)
        # Degenerate count-of-count tables (no singletons) would zero the
        # back-off mass; fall back to absolute discounting at 0.5.
        discount = n1 / (n1 + 2.0 * n2) if n1 > 0 else 0.5
        denom: Counter[tuple[str, ...]] = Counter()
        types: Counter[tuple[str, ...]] = Counter()
        for gram, c in counts.items():
            denom[gram[:-1]] += c
            types[gram[:-1]] += 1
        grams = sorted(counts) if k > 1 else sorted((w,) for w in vocab)
        for gram in grams:
            ctx = gram[:-1]
            c = counts.get(gram, 0)
            if denom[ctx] == 0:
                continue  # context never observed at this order
            interp = discount * types[ctx] / denom[ctx]
            p = max(c - discount, 0.0) / denom[ctx] + interp * lower_prob(ctx[1:], gram[-1])
            logprobs[gram] = math.log10(p)
        if k > 1:  # the empty context's back-off is never charged
            for ctx in sorted(denom):
                backoffs[ctx] = math.log10(discount * types[ctx] / denom[ctx])

    classes = {
        tag: {
            word: math.log10(c / sum(cnt.values())) for word, c in sorted(cnt.items())
        }
        for tag, cnt in sorted(member_counts.items())
    }
    return NGramLM(
        order=order,
        logprobs=logprobs,
        backoffs=backoffs,
        vocab=frozenset(vocab),
        classes=classes,
    )
