"""Simulated subword beam-search decoding with shallow fusion.

The first-pass acoustic model is a pluggable emission oracle mapping a token
history to normalized next-token log-probabilities.  Beam search extends
hypotheses breadth-synchronously; each extension's fused score adds the
emission log-probability and ``lam`` times the biaser increment for the
token, and finished hypotheses keep their main-model and biasing score
components separated so a second pass can re-weight them.

Biasing scores are conventional automaton path weights: the fused score adds
them as-is, so with descending-score beam search a positive catalog weight
boosts matching words and a negative one penalizes them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

from .context import ContextualBiaser
from .errors import InputFormatError, open_text
from .fst import WordFst
from .lookahead import PhraseWalk, WordWalk
from .wordpiece import SegmentationError, WordpieceVocab, detokenize, segment, word_end

END = "</s>"

_NORM_TOL = 1e-6

_PEAK = 0.75
_SWAP_PEAK = 0.5
_SWAP_TRUE = 0.045
_CONFUSABLES = 8


class OracleError(ValueError):
    """An emission oracle broke its contract (e.g. unnormalized scores)."""


class EmissionOracle(Protocol):
    """Next-token scorer standing in for the first-pass model."""

    def score(self, utt_id: str, history: tuple[str, ...]) -> Mapping[str, float]:
        """Log-probabilities over candidate next tokens (and ``END``).

        Only tokens with nonzero probability need appear; the values must
        log-sum-exp to 0 within 1e-6.  Beam search calls this once per live
        hypothesis, visiting the beam in token order (not score order), and
        checks each distinct map once: it compares a map by
        value with the last one that passed, never by identity, so an
        oracle may return one object and mutate it between calls.
        """
        ...


def _check_scale(lam: float) -> None:
    if lam < 0:
        raise ValueError("fusion scale must be >= 0")
    if not math.isfinite(lam):
        raise ValueError("non-finite input to fuse_step")


def fuse_step(rnnt_logp: float, sf_increment: float, lam: float) -> float:
    """One shallow-fusion combination: main score plus scaled biasing score.

    It refuses a negative scale and any non-finite input.  Finite inputs
    whose sum overflows return the overflowed value.  :func:`beam_search`
    checks ``lam`` once and fuses inline, calling this only for a candidate
    whose fused score is not finite, so the two agree on every input.
    """
    _check_scale(lam)
    if not (math.isfinite(rnnt_logp) and math.isfinite(sf_increment)):
        raise ValueError("non-finite input to fuse_step")
    return rnnt_logp + lam * sf_increment


@dataclass(frozen=True, slots=True)
class Hypothesis:
    tokens: tuple[str, ...]
    text: str
    rnnt_logp: float
    sf_score: float   # accumulated biasing increments, unscaled by lam
    fused: float      # rnnt_logp + lam * sf_score under the decode-time lam


@dataclass(slots=True)
class NBestList:
    utt_id: str
    ref: str
    lam: float
    hyps: list[Hypothesis]


# -- biasers ------------------------------------------------------------------
#
# A biaser is its own scorer: initial() gives the plain, hashable state a
# hypothesis starts from, and expand / finish_word / finalize are pure
# transitions from a state and word content to a score increment and a new
# state: beam search splits each token once (wordpiece.word_end) and calls
# expand("pl"), or finish_word("er") for "er_" and finish_word("") for "_".
# open_session() pairs the biaser with its initial state in a
# lookahead.Session, whose clone, taken by beam search for every candidate
# token, copies two references.  A biaser is built once, so every utterance
# it decodes shares its lookahead cache.  The cache keeps live bands only,
# so the automaton bounds its size: one entry per (state, prefix of one of
# that state's arc words).


class NullBiaser:
    """Biasing disabled: every increment is exactly zero.

    It has no state, so it is its own session and its own clone.
    """

    def open_session(self):
        return self

    def clone(self):
        return self

    def expand(self, content):
        return 0.0

    def finish_word(self, content):
        return 0.0

    def finalize(self):
        return 0.0


class SubwordBiaser(PhraseWalk):
    """Applies a biasing automaton at the subword level with lookahead.

    The biaser is the automaton's phrase walk, with its own lookahead cache.
    """

    __slots__ = ()

    def __init__(self, fst: WordFst):
        super().__init__(fst, cache={})


class WordBiaser(WordWalk):
    """Applies a biasing automaton at word boundaries only (no lookahead)."""

    __slots__ = ()


Biaser = NullBiaser | SubwordBiaser | WordBiaser | ContextualBiaser


# -- synthetic emission oracle -------------------------------------------------


class SynthOracle:
    """Deterministic seeded oracle emitting reference tokens with confusions.

    At each content position of a confusable word, the reference piece gets
    the probability peak and a sampled set of similar pieces shares the rest;
    with probability ``noise`` the peak swaps onto one confusable and the
    reference piece drops near the bottom of the candidate list, which is
    what creates recognition errors for the decoder to fix.  Words outside
    ``noisy_words`` (when given), delimiters, and end-of-sequence are emitted
    cleanly.  Module constants fix the shape of a noisy position's map:

    - ``_CONFUSABLES`` (8): at most this many similar pieces are sampled;
    - ``_PEAK`` (0.75): the reference piece's probability, the confusables
      sharing the rest evenly;
    - ``_SWAP_PEAK`` (0.5) and ``_SWAP_TRUE`` (0.045): after a swap, the
      lucky confusable's and the reference piece's probabilities, the other
      confusables sharing the rest evenly.

    Score maps depend only on (seed, utterance, position), so
    decoding is bit-reproducible.

    Every live hypothesis at a beam-search step has the same length, so
    :meth:`score` keeps a one-entry memo keyed on (utterance, position) and
    builds each step's map once, not once per hypothesis.  The memo is one
    attribute holding a ``(key, map)`` tuple, replaced whole, and each call
    returns a fresh copy of the map; threads sharing an oracle can at worst
    race to rebuild the same map.
    """

    def __init__(
        self,
        vocab: WordpieceVocab,
        refs: Mapping[str, str] | Iterable[tuple[str, str]] | str,
        noise: float = 0.0,
        seed: int = 0,
        *,
        noisy_words: frozenset[str] | None = None,
    ):
        if isinstance(refs, str):
            refs = {"utt-0": refs}
        self.refs = dict(refs)
        if not 0.0 <= noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")
        self.noise = noise
        self.seed = seed
        self.tokens: dict[str, tuple[str, ...]] = {}
        self._noisy_pos: dict[str, frozenset[int]] = {}
        for utt, ref in self.refs.items():
            toks: list[str] = []
            noisy: set[int] = set()
            for word in ref.lower().split():
                try:
                    pieces = segment(vocab, word)
                except SegmentationError as exc:
                    raise SegmentationError(f"reference {utt}: {exc}") from None
                if noisy_words is None or word in noisy_words:
                    # Every piece but the standalone delimiter is content.
                    noisy.update(range(len(toks), len(toks) + len(pieces) - 1))
                toks += pieces
            toks.append(END)
            self.tokens[utt] = tuple(toks)
            self._noisy_pos[utt] = frozenset(noisy)
        self._confusions = _confusion_sets(vocab)
        self._memo: tuple = (None, None)

    def utterances(self) -> list[tuple[str, str]]:
        return list(self.refs.items())

    def max_steps(self, utt_id: str) -> int:
        return len(self.tokens[utt_id]) + 2

    def score(self, utt_id: str, history: tuple[str, ...]) -> dict[str, float]:
        key = (utt_id, len(history))
        memo = self._memo
        if memo[0] != key:
            memo = self._memo = (key, self._build(*key))
        return dict(memo[1])

    def _build(self, utt_id: str, pos: int) -> dict[str, float]:
        toks = self.tokens[utt_id]
        intended = toks[pos] if pos < len(toks) else END
        if self.noise == 0.0 or pos not in self._noisy_pos[utt_id]:
            return {intended: 0.0}
        rng = random.Random(f"{self.seed}:{utt_id}:{pos}:{intended}")
        pool = self._confusions.get(intended, ())
        others = rng.sample(pool, min(_CONFUSABLES, len(pool))) if pool else []
        if not others:
            return {intended: 0.0}
        if rng.random() < self.noise:
            # The peak lands on one confusable and the true piece sinks to the
            # bottom: without mid-word biasing it falls off narrow beams.
            lucky = rng.choice(others)
            rest = [t for t in others if t != lucky]
            weights = {lucky: _SWAP_PEAK, intended: _SWAP_TRUE}
            share = (1.0 - _SWAP_PEAK - _SWAP_TRUE) / len(rest) if rest else 0.0
            for t in rest:
                weights[t] = share
        else:
            weights = {intended: _PEAK}
            for t in others:
                weights[t] = (1.0 - _PEAK) / len(others)
        total = sum(weights.values())
        return {t: math.log(w / total) for t, w in sorted(weights.items()) if w > 0.0}


synth_oracle = SynthOracle  # the name perfbench/ calls


def _confusion_sets(vocab: WordpieceVocab) -> dict[str, tuple[str, ...]]:
    """Pieces at edit distance one from each piece, same or adjacent length."""
    pieces = sorted(p for p in vocab.pieces if p != vocab.delimiter)
    out: dict[str, tuple[str, ...]] = {}
    for p in pieces:
        near = [q for q in pieces if q != p and abs(len(q) - len(p)) <= 1 and _edit1(p, q)]
        out[p] = tuple(near)
    return out


def _edit1(a: str, b: str) -> bool:
    if a == b:
        return False
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b = b, a
        la, lb = lb, la
    # b is one longer: deleting one char of b must give a
    return any(b[:i] + b[i + 1 :] == a for i in range(lb))


# -- beam search ---------------------------------------------------------------


def _check_normalized(scores: Mapping[str, float], utt_id: str) -> None:
    if not scores:
        raise OracleError(f"{utt_id}: oracle returned no candidates")
    if not all(map(math.isfinite, scores.values())):
        token, logp = next((t, v) for t, v in scores.items() if not math.isfinite(v))
        raise OracleError(f"{utt_id}: non-finite oracle score {logp} for token {token!r}")
    m = max(scores.values())
    lse = m + math.log(sum(math.exp(v - m) for v in scores.values()))
    if abs(lse) > _NORM_TOL:
        raise OracleError(f"{utt_id}: oracle scores log-sum-exp to {lse:.3g}, not 0")


def _split_items(scores: Mapping[str, float], vocab: WordpieceVocab, utt_id: str) -> list:
    """``(token, logp, is_end, content)`` for each candidate, in token order."""
    items = []
    for token, logp in sorted(scores.items()):
        is_end = token == END
        try:
            content = None if is_end else word_end(vocab, token)
        except ValueError as exc:
            raise OracleError(f"{utt_id}: oracle token {token!r}: {exc}") from None
        items.append((token, logp, is_end, content))
    return items


def beam_search(
    oracle: EmissionOracle,
    biaser: Biaser | None,
    vocab: WordpieceVocab,
    lam: float,
    beam_size: int = 16,
    n_best: int = 8,
    *,
    utt_id: str = "utt-0",
    ref: str = "",
    max_steps: int = 512,
) -> NBestList:
    """Breadth-synchronous beam search over subword tokens with shallow fusion.

    Finished hypotheses carry separated score components; the fused score is
    always ``rnnt_logp + lam * sf_score``.  Ties in the fused score break by
    token-sequence lexicographic order, so decoding is fully deterministic.
    """
    if n_best < 1 or beam_size < n_best:
        raise ValueError(f"need beam_size >= n_best >= 1, got {beam_size}, {n_best}")
    if not vocab.pieces:
        raise ValueError("empty vocabulary")
    _check_scale(lam)
    if biaser is None:
        biaser = NullBiaser()
    inf = math.inf
    # A finished hypothesis is (-fused, tokens, rnnt_logp, sf_score, session).
    # Token sequences are unique, so sorting these tuples orders by
    # descending fused score, then by tokens, and never compares two sessions.
    #
    # Search is breadth-synchronous: every live hypothesis at a step has the
    # same length.  The live beam, (tokens, rnnt_logp, sf_score, session), is
    # kept in token order and each map's items are visited in token order, so
    # candidates (-fused, tokens, token, r, b, session) are made in the order
    # of tokens + (token,).  A stable sort keyed on -fused alone, a float that
    # compares in C, then gives the order of the whole-tuple sort, ties
    # included.  A step that makes more than beam_size candidates keeps the
    # first beam_size indices of that argsort, put back in index order so the
    # next step again visits the beam in token order; a step making no more
    # sorts nothing.  The child tuple is built for the survivors only.
    #
    # Oracles such as SynthOracle hand every hypothesis at a step a map equal
    # in value, so the last map that passed _check_normalized is kept, as a
    # private copy with its sorted (token, logp, is_end, word_end content)
    # items, and a map is checked and split again only when it differs in value.
    # An equal map is normalized too, so every map is still verified; maps
    # are never compared by identity, since an oracle may mutate and return
    # one object.
    #
    # With the scale checked, a candidate's fused score is one multiply-add.
    # A non-finite part always makes it non-finite, so only a score that fails
    # -inf < f < inf goes to fuse_step, which raises on a non-finite part and
    # otherwise returns the same overflowed sum.
    live = [((), 0.0, 0.0, biaser.open_session())]
    done = []
    checked = items = None
    for _ in range(max_steps):
        if not live:
            break
        extended = []
        for tokens, rnnt, sf, parent in live:
            scores = oracle.score(utt_id, tokens)
            if scores != checked:
                scores = dict(scores)
                _check_normalized(scores, utt_id)
                items = _split_items(scores, vocab, utt_id)
                checked = scores
            for token, logp, is_end, content in items:
                session = parent.clone()
                r = rnnt + logp
                if is_end:
                    b = sf + session.finalize()
                elif content is None:
                    b = sf + session.expand(token)
                else:
                    b = sf + session.finish_word(content)
                f = r + lam * b
                if not -inf < f < inf:
                    f = fuse_step(r, b, lam)
                if is_end:
                    done.append((-f, tokens, r, b, session))
                else:
                    extended.append((-f, tokens, token, r, b, session))
        if len(extended) > beam_size:
            keys = [candidate[0] for candidate in extended]
            keep = sorted(range(len(keys)), key=keys.__getitem__)[:beam_size]
            extended = [extended[i] for i in sorted(keep)]
        live = [(tokens + (token,), r, b, session)
                for _, tokens, token, r, b, session in extended]
    else:
        # Step cap reached: settle whatever is still on the beam.
        for tokens, r, sf, session in live:
            b = sf + session.finalize()
            f = r + lam * b
            if not -inf < f < inf:
                f = fuse_step(r, b, lam)
            done.append((-f, tokens, r, b, session))
    done.sort()
    hyps = [
        Hypothesis(
            tokens=tokens,
            text=detokenize(vocab, tokens),
            rnnt_logp=r,
            sf_score=b,
            fused=-neg_f,
        )
        for neg_f, tokens, r, b, _ in done[:n_best]
    ]
    return NBestList(utt_id=utt_id, ref=ref, lam=lam, hyps=hyps)


def decode_corpus(
    oracle: SynthOracle,
    biaser: Biaser | None,
    vocab: WordpieceVocab,
    lam: float,
    beam_size: int = 16,
    n_best: int = 8,
) -> list[NBestList]:
    """Decode every utterance the oracle knows about, in id order."""
    out = []
    for utt_id, ref in sorted(oracle.utterances()):
        out.append(
            beam_search(
                oracle, biaser, vocab, lam, beam_size, n_best,
                utt_id=utt_id, ref=ref, max_steps=oracle.max_steps(utt_id),
            )
        )
    return out


# -- n-best files --------------------------------------------------------------
#
# One JSON object per line:
#   {"id": ..., "ref": ..., "lambda": ...,
#    "hyps": [{"text", "tokens", "rnnt_logp", "sf_score"}, ...]}
# sf_score is stored unscaled; the decode-time fusion scale is recorded so a
# second pass can re-weight the biasing contribution exactly.


def write_nbest(lists: Iterable[NBestList], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for nb in lists:
            obj = {
                "id": nb.utt_id,
                "ref": nb.ref,
                "lambda": nb.lam,
                "hyps": [
                    {
                        "text": h.text,
                        "tokens": list(h.tokens),
                        "rnnt_logp": h.rnnt_logp,
                        "sf_score": h.sf_score,
                    }
                    for h in nb.hyps
                ],
            }
            f.write(json.dumps(obj) + "\n")


def _typed(value, kind: type, field: str):
    if not isinstance(value, kind):
        raise TypeError(f'"{field}" needs a {kind.__name__}, got {value!r}')
    return value


def _number(value, field: str) -> float:
    """A JSON number, int or float but not bool, as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f'"{field}" needs a number, got {value!r}')
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        raise ValueError(f'"{field}" is out of range') from None
    if not math.isfinite(number):  # NaN or Infinity, which json.loads accepts
        raise ValueError(f'"{field}" is not finite')
    return number


def _hypothesis(h: dict, lam: float) -> Hypothesis:
    tokens = tuple(_typed(t, str, "tokens") for t in _typed(h["tokens"], list, "tokens"))
    text = _typed(h["text"], str, "text")
    rnnt_logp, sf_score = _number(h["rnnt_logp"], "rnnt_logp"), _number(h["sf_score"], "sf_score")
    return Hypothesis(tokens=tokens, text=text, rnnt_logp=rnnt_logp, sf_score=sf_score,
                      fused=fuse_step(rnnt_logp, sf_score, lam))


def read_nbest(path) -> list[NBestList]:
    """The n-best lists of a JSON-lines file; an utterance id given twice is refused."""
    out: dict[str, NBestList] = {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _typed(json.loads(line), dict, "record")
                lam = _number(obj.get("lambda", 1.0), "lambda")
                if lam < 0:
                    raise ValueError('"lambda" is negative')
                raw = [_typed(h, dict, "hypothesis") for h in _typed(obj["hyps"], list, "hyps")]
                hyps = [_hypothesis(h, lam) for h in raw]
                if not hyps:
                    raise ValueError('empty "hyps" list')
                utt_id, ref = _typed(obj["id"], str, "id"), _typed(obj["ref"], str, "ref")
            except (KeyError, TypeError, ValueError) as exc:
                raise InputFormatError(f"{path}:{lineno}: bad n-best record: {exc}") from None
            nb = NBestList(utt_id=utt_id, ref=ref, lam=lam, hyps=hyps)
            if out.setdefault(utt_id, nb) is not nb:
                raise InputFormatError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
    if not out:
        raise InputFormatError(f"{path}: no n-best records found")
    return list(out.values())
