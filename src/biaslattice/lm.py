"""Back-off n-gram language models with interpolated Kneser-Ney smoothing.

Lower-order distributions use continuation counts (how many distinct left
contexts a gram was seen with); the per-order discount is estimated from the
counts as n1 / (n1 + 2 * n2).  Models optionally carry word classes: an
annotated training span like ``@contactname(ada)`` is replaced by its tag in
the token stream, and the spanned words accumulate an in-class distribution.
At scoring time a class member's probability factors as
P(tag | context) * P(member | tag), mixed with the plain-word path when both
exist, so conditional distributions still sum to one over the surface
vocabulary.

Models serialize to the standard back-off text format (header with per-order
counts, then ``logprob  gram  [backoff]`` blocks, log base 10) plus a sidecar
``tag<TAB>member<TAB>logprob`` file for class members.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from .context import Span, parse_annotated
from .errors import InputFormatError

BOS = "<s>"
EOS_WORD = "</s>"
UNK = "<unk>"


@dataclass
class NGramLM:
    """Interpolated KN model in back-off form.

    ``logprobs`` maps n-gram tuples (any order) to natural-log conditional
    probabilities; ``backoffs`` maps context tuples to natural-log back-off
    weights.  ``vocab`` holds every predictable token, including class tags,
    the sentence end, and the unknown word.  ``classes`` maps a tag to its
    members' natural-log in-class probabilities.
    """

    order: int
    logprobs: dict[tuple[str, ...], float]
    backoffs: dict[tuple[str, ...], float]
    vocab: frozenset[str]
    classes: dict[str, dict[str, float]] = field(default_factory=dict)

    def logprob(self, words: Iterable[str]) -> float:
        """Sequence log-probability; the interface rescoring models plug into."""
        return lm_logprob(self, words)

    def cond_logprob(self, context: tuple[str, ...], token: str) -> float:
        """Natural-log P(token | context) with back-off; token must be in vocab."""
        ctx = context[-(self.order - 1):] if self.order > 1 else ()
        charged = 0.0
        while True:
            p = self.logprobs.get(ctx + (token,))
            if p is not None:
                return charged + p
            if not ctx:
                raise KeyError(f"token {token!r} not in the model vocabulary")
            # Unseen continuation: charge the context's back-off weight.
            charged += self.backoffs.get(ctx, 0.0)
            ctx = ctx[1:]


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


def train_kn_lm(
    lines: Iterable[str], order: int = 4, *, source: str = "<corpus>"
) -> NGramLM:
    """Train an interpolated Kneser-Ney model on (optionally annotated) text.

    ``lines`` hold whitespace-separated tokens; spans written
    ``@tag(word ...)`` become class tags in the token stream and their words
    become class members.
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
                return scale * math.exp(p)
            if not ctx:
                return scale * uniform
            scale *= math.exp(backoffs.get(ctx, 0.0))
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
            logprobs[gram] = math.log(p)
        for ctx in sorted(denom):
            backoffs[ctx] = math.log(discount * types[ctx] / denom[ctx])

    classes = {
        tag: {
            word: math.log(c / sum(cnt.values())) for word, c in sorted(cnt.items())
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


def surface_prob(lm: NGramLM, context: tuple[str, ...], word: str) -> tuple[float, str]:
    """Natural-log probability of a surface word, plus its context token.

    Mixes the plain-word path with every class path containing the word, by
    a log-sum-exp, so no path's probability underflows to 0; a word with one
    path pays no ``exp``/``log`` round trip.  The context token is the
    analysis with the larger share (tag or word), which keeps scoring
    deterministic.  Unknown words score as the unknown token.
    """
    paths = []
    best_lp = -math.inf
    best_tok = UNK
    if word in lm.vocab and word not in lm.classes:
        best_lp, best_tok = lm.cond_logprob(context, word), word
        paths.append(best_lp)
    for tag, members in lm.classes.items():
        lp = members.get(word)
        if lp is not None and tag in lm.vocab:
            lc = lm.cond_logprob(context, tag) + lp
            paths.append(lc)
            if lc > best_lp:
                best_lp, best_tok = lc, tag
    if not paths:
        return lm.cond_logprob(context, UNK), UNK
    if len(paths) == 1:
        return best_lp, best_tok
    top = max(paths)
    return top + math.log(sum(math.exp(lp - top) for lp in paths)), best_tok


def lm_logprob(lm: NGramLM, words: Iterable[str]) -> float:
    """Natural-log probability of a word sequence, including sentence end."""
    ctx_len = lm.order - 1
    ctx = (BOS,) * ctx_len
    total = 0.0
    for word in words:
        lp, tok = surface_prob(lm, ctx, word.lower())
        total += lp
        ctx = (ctx + (tok,))[-ctx_len:] if ctx_len else ()
    return total + lm.cond_logprob(ctx, EOS_WORD)


# -- model files ---------------------------------------------------------------

_LN10 = math.log(10.0)
_BOW_ONLY = -99.0  # sentinel logprob for grams that exist only as contexts
# How far above 0 a stored log10-prob may sit: a trained model can write a
# probability a rounding error above 1, and nothing larger is a probability.
_LOGPROB_TOLERANCE = 1e-6
_LOG_MAX = math.log(sys.float_info.max)  # the largest argument math.exp takes


def write_arpa(lm: NGramLM, path) -> None:
    by_order: dict[int, list[tuple[str, ...]]] = defaultdict(list)
    for gram in lm.logprobs:
        by_order[len(gram)].append(gram)
    for ctx in lm.backoffs:
        if ctx not in lm.logprobs and 1 <= len(ctx) < lm.order:
            by_order[len(ctx)].append(ctx)  # bow-only gram, written with sentinel
    with open(path, "w", encoding="utf-8") as f:
        f.write("\\data\\\n")
        for k in range(1, lm.order + 1):
            f.write(f"ngram {k}={len(by_order.get(k, ()))}\n")
        f.write("\n")
        for k in range(1, lm.order + 1):
            f.write(f"\\{k}-grams:\n")
            for gram in sorted(by_order.get(k, ())):
                lp = lm.logprobs.get(gram)
                p10 = _BOW_ONLY if lp is None else lp / _LN10
                line = f"{p10:.12g}\t{' '.join(gram)}"
                if k < lm.order and gram in lm.backoffs:
                    line += f"\t{lm.backoffs[gram] / _LN10:.12g}"
                f.write(line + "\n")
            f.write("\n")
        f.write("\\end\\\n")


def read_arpa(path) -> NGramLM:
    logprobs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    declared: dict[int, int] = {}
    order = 0
    section = None
    # (back-off, line number, line) of the largest and smallest back-off
    largest_bow = (-math.inf, 0, "")
    smallest_bow = (math.inf, 0, "")
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    i = 0
    n = len(lines)
    while i < n and lines[i].strip() != "\\data\\":
        i += 1
    if i == n:
        raise InputFormatError(f"{path}: missing \\data\\ header")
    i += 1
    while i < n:
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line == "\\end\\":
            break
        if line.startswith("ngram "):
            try:
                k, cnt = line[len("ngram "):].split("=")
                declared[int(k)] = int(cnt)
                order = max(order, int(k))
            except ValueError:
                raise InputFormatError(f"{path}:{i}: bad ngram declaration") from None
            continue
        if line.startswith("\\") and line.endswith("-grams:"):
            try:
                section = int(line[1:-len("-grams:")])
            except ValueError:
                raise InputFormatError(f"{path}:{i}: bad section header {line!r}") from None
            continue
        if section is None:
            raise InputFormatError(f"{path}:{i}: gram line outside a section")
        try:
            if "\t" in line:
                parts = line.split("\t")
                p10 = float(parts[0])
                words = tuple(parts[1].split())
                bow = float(parts[2]) if len(parts) > 2 and parts[2] else None
            else:
                parts = line.split()
                p10 = float(parts[0])
                words = tuple(parts[1 : 1 + section])
                bow = float(parts[1 + section]) if len(parts) > 1 + section else None
        except (ValueError, IndexError):
            raise InputFormatError(f"{path}:{i}: bad gram line {line!r}") from None
        if len(words) != section:
            raise InputFormatError(
                f"{path}:{i}: expected a {section}-gram, got {len(words)} tokens"
            )
        # A log-prob of -99 or -inf marks a gram kept only as a back-off
        # context.  Values are checked in natural log, where they are used.
        if not p10 * _LN10 < math.inf:
            raise InputFormatError(f"{path}:{i}: non-finite log-prob in {line!r}")
        if bow is not None and not math.isfinite(bow * _LN10):
            raise InputFormatError(f"{path}:{i}: non-finite back-off in {line!r}")
        if p10 > _LOGPROB_TOLERANCE:
            raise InputFormatError(f"{path}:{i}: log-prob above 0 in {line!r}")
        if p10 > _BOW_ONLY + 0.5:
            logprobs[words] = p10 * _LN10
        if bow is not None:
            backoffs[words] = bow * _LN10
            if bow > largest_bow[0]:
                largest_bow = (bow, i, line)
            if bow < smallest_bow[0]:
                smallest_bow = (bow, i, line)
    if not logprobs:
        raise InputFormatError(f"{path}: no grams found")
    # A score charges at most order - 1 back-offs on top of one log-prob.
    # Their sum must stay within the log of the largest float either way:
    # above it the score is no probability, and the bound below keeps every
    # word's score a fixed distance from 0, so a sum of scores stays finite.
    charges = max(order - 1, 1)
    bow, i, line = largest_bow
    if (charges * bow + _LOGPROB_TOLERANCE) * _LN10 > _LOG_MAX:
        raise InputFormatError(f"{path}:{i}: back-off too large to score in {line!r}")
    bow, i, line = smallest_bow
    if charges * bow * _LN10 < -_LOG_MAX:
        raise InputFormatError(f"{path}:{i}: back-off too small to score in {line!r}")
    # Every sentence ends in EOS_WORD, and a word outside the model scores as UNK.
    missing = [w for w in (EOS_WORD, UNK) if (w,) not in logprobs]
    if missing:
        raise InputFormatError(f"{path}: no unigram log-prob for {' '.join(missing)}")
    vocab = frozenset(g[0] for g in logprobs if len(g) == 1)
    return NGramLM(
        order=order, logprobs=logprobs, backoffs=backoffs, vocab=vocab, classes={}
    )


def write_members(lm: NGramLM, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for tag, members in sorted(lm.classes.items()):
            for word, lp in sorted(members.items()):
                f.write(f"{tag}\t{word}\t{lp / _LN10:.12g}\n")


def read_members(path) -> dict[str, dict[str, float]]:
    classes: dict[str, dict[str, float]] = defaultdict(dict)
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not parts[0].startswith("@"):
                raise InputFormatError(f"{path}:{lineno}: expected 'tag<TAB>word<TAB>logprob'")
            try:
                logprob = float(parts[2])
            except ValueError:
                raise InputFormatError(f"{path}:{lineno}: bad logprob") from None
            if not math.isfinite(logprob * _LN10):
                raise InputFormatError(f"{path}:{lineno}: non-finite logprob {parts[2]!r}")
            if logprob > _LOGPROB_TOLERANCE:
                raise InputFormatError(f"{path}:{lineno}: logprob above 0: {parts[2]!r}")
            # The same floor as summed back-offs, so a member's score stays finite.
            if logprob * _LN10 < -_LOG_MAX:
                raise InputFormatError(f"{path}:{lineno}: logprob too small to score: {parts[2]!r}")
            classes[parts[0]][parts[1]] = logprob * _LN10
    return dict(classes)


def load_lm(arpa_path, members_path=None) -> NGramLM:
    lm = read_arpa(arpa_path)
    if members_path is not None:
        lm.classes = read_members(members_path)
    return lm
