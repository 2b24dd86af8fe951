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
``tag<TAB>member<TAB>logprob`` file for class members.  A model holds these
log10 numbers, so a written model reads back equal; scores are natural logs.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence

from .context import Span, parse_annotated
from .errors import InputFormatError, open_text, records

BOS = "<s>"
EOS_WORD = "</s>"
UNK = "<unk>"
_LN10 = math.log(10.0)  # the scoring tables' one conversion, log10 to natural log


@dataclass(frozen=True)
class NGramLM:
    """Interpolated KN model in back-off form.

    ``logprobs`` maps n-gram tuples (any order) to log10 conditional
    probabilities; ``backoffs`` maps context tuples to log10 back-off
    weights.  ``vocab`` holds every predictable token, including class tags,
    the sentence end, and the unknown word.  ``classes`` maps a tag to its
    members' log10 in-class probabilities: the numbers the model files hold.

    Scoring reads two tables built from these fields on first use, converted
    to natural log: each context's continuations with its back-off weight,
    and each surface word's paths.  So every score is a natural log.
    """

    order: int
    logprobs: dict[tuple[str, ...], float]
    backoffs: dict[tuple[str, ...], float]
    vocab: frozenset[str]
    classes: dict[str, dict[str, float]] = field(default_factory=dict)

    @cached_property
    def _contexts(self) -> dict[tuple[str, ...], tuple[dict[str, float], float]]:
        """Context -> ({token: log-prob}, back-off weight), natural log, for
        every context that has a continuation or a back-off weight."""
        table = {ctx: ({}, bow * _LN10) for ctx, bow in self.backoffs.items()}
        for gram, lp in self.logprobs.items():
            ctx = gram[:-1]
            entry = table.get(ctx)
            if entry is None:
                entry = table[ctx] = ({}, 0.0)
            entry[0][gram[-1]] = lp * _LN10
        return table

    @cached_property
    def _paths(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """Surface word -> its ``(token, member log-prob)`` paths in natural
        log: the plain word (member log-prob 0) first, then each class in
        ``classes`` order.  A word with no path scores as ``((UNK, 0.0),)``."""
        paths: dict[str, list[tuple[str, float]]] = {
            w: [(w, 0.0)] for w in self.vocab if w not in self.classes
        }
        for tag, members in self.classes.items():
            if tag in self.vocab:
                for word, lp in members.items():
                    paths.setdefault(word, []).append((tag, lp * _LN10))
        return {w: tuple(p) for w, p in paths.items()}

    def logprob(self, words: Iterable[str]) -> float:
        """Natural-log probability of a word sequence, including sentence end."""
        return self.nbest_logprob((tuple(words),))[0]

    def nbest_logprob(self, sentences: Iterable[Sequence[str]]) -> list[float]:
        """Natural-log probability of each word sequence, including sentence end.

        The interface rescoring models plug into.  The sentences are walked as
        a tree of word prefixes, so a prefix shared by several sentences is
        scored once, by the same steps in the same order as for that sentence
        alone: each score is ``==`` to :meth:`logprob` of its sentence.  The
        tree lives for this call only.
        """
        # A node is [log-prob so far, context, children by word or None,
        # sentence score or None]; a leaf gets its children dict on demand.
        root = [0.0, (BOS,) * (self.order - 1), None, None]
        scores = []
        for words in sentences:
            node = root
            for word in words:
                children = node[2]
                if children is None:
                    children = node[2] = {}
                    child = None
                else:
                    child = children.get(word)
                if child is None:
                    ctx = node[1]
                    lp, tok = self._surface(ctx, word.lower())
                    ctx = (ctx + (tok,))[1:] if ctx else ctx
                    child = children[word] = [node[0] + lp, ctx, None, None]
                node = child
            if node[3] is None:
                node[3] = node[0] + self._cond(node[1], EOS_WORD)
            scores.append(node[3])
        return scores

    def cond_logprob(self, context: tuple[str, ...], token: str) -> float:
        """Natural-log P(token | context) with back-off; token must be in vocab."""
        return self._cond(context[-(self.order - 1):] if self.order > 1 else (), token)

    def _cond(self, ctx: tuple[str, ...], token: str) -> float:
        """:meth:`cond_logprob` for a context at most ``order - 1`` long."""
        contexts = self._contexts
        charged = 0.0
        while True:
            entry = contexts.get(ctx)
            if entry is not None:
                p = entry[0].get(token)
                if p is not None:
                    return charged + p
                # Unseen continuation: charge the context's back-off weight.
                # A context with no entry charges 0, and adding 0 to the
                # charge changes nothing: it is never -0.0.
                charged += entry[1]
            if not ctx:
                raise KeyError(f"token {token!r} not in the model vocabulary")
            ctx = ctx[1:]

    def _surface(self, ctx: tuple[str, ...], word: str) -> tuple[float, str]:
        """:func:`surface_prob` of a lowercased word after a context at most
        ``order - 1`` long: the one step that every fold over words takes."""
        paths = self._paths.get(word, _UNK_PATHS)
        if len(paths) == 1:
            # cond never returns -0.0, so adding a plain word's 0.0 is exact.
            ((tok, member_lp),) = paths
            return self._cond(ctx, tok) + member_lp, tok
        lps = [self._cond(ctx, tok) + member_lp for tok, member_lp in paths]
        best = 0
        for i in range(1, len(lps)):
            if lps[i] > lps[best]:
                best = i
        top = max(lps)
        return top + math.log(sum(math.exp(lp - top) for lp in lps)), paths[best][0]


_UNK_PATHS = ((UNK, 0.0),)


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
    become class members.  Lines are read as :func:`errors.records` and
    lowercased.  The sentence markers ``<s>`` and ``</s>`` are reserved: a
    line holding one, as a word or a span member, is refused.

    The cost follows the distinct inputs, not the line count: each distinct
    line is parsed once, n-grams are counted once per distinct token
    sequence (lines that differ only inside their spans share one) weighted
    by how often it occurs, and each tag's member total is taken once.  A
    malformed or refused line is reported at its first occurrence.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    # Each distinct line -> [where its first copy is, its count].
    distinct: dict[str, list] = {}
    for where, line in records(lines, source):
        line = line.lower()
        seen = distinct.get(line)
        if seen is None:
            distinct[line] = [where, 1]
        else:
            seen[1] += 1
    sequences: Counter[tuple[str, ...]] = Counter()
    member_counts: dict[str, Counter[str]] = defaultdict(Counter)
    for line, (where, count) in distinct.items():
        # A stripped, non-blank line parses to at least one token or raises.
        seq, members = _substitute(parse_annotated(line, where=where))
        reserved = {BOS, EOS_WORD}.intersection([*seq, *(word for _, word in members)])
        if reserved:
            raise InputFormatError(
                f"{where}: reserved sentence marker in training text: {' '.join(sorted(reserved))}"
            )
        sequences[tuple(seq)] += count
        for tag, word in members:
            member_counts[tag][word] += count
    if not sequences:
        raise InputFormatError(f"{source}: empty training corpus")

    vocab = {tok for seq in sequences for tok in seq} | {EOS_WORD, UNK}

    # Raw gram inventories over BOS-padded sequences; grams ending in the
    # padding symbol are never predicted and are excluded everywhere.
    raw_n: Counter[tuple[str, ...]] = Counter()
    raw_sets: dict[int, set[tuple[str, ...]]] = {k: set() for k in range(2, order + 1)}
    pad = (BOS,) * (order - 1)
    for seq, count in sequences.items():
        padded = pad + seq + (EOS_WORD,)
        for k in range(2, order + 1):
            for i in range(len(padded) - k + 1):
                gram = padded[i : i + k]
                if gram[-1] != BOS:
                    raw_sets[k].add(gram)
        for i in range(len(padded) - order + 1):
            gram = padded[i : i + order]
            if gram[-1] != BOS:
                raw_n[gram] += count

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

    def lower_prob(ctx: tuple[str, ...], token: str) -> float:
        # Linear-domain eval against the tables built so far.
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
        # No score charges the empty context's back-off, and no file holds one.
        for ctx in sorted(denom) if k > 1 else ():
            backoffs[ctx] = math.log10(discount * types[ctx] / denom[ctx])

    classes = {}
    for tag, cnt in sorted(member_counts.items()):
        total = sum(cnt.values())
        classes[tag] = {word: math.log10(c / total) for word, c in sorted(cnt.items())}
    return NGramLM(order, logprobs, backoffs, frozenset(vocab), classes)


def surface_prob(lm: NGramLM, context: tuple[str, ...], word: str) -> tuple[float, str]:
    """Natural-log probability of a surface word, plus its context token.

    Mixes the plain-word path with every class path containing the word, by
    a log-sum-exp, so no path's probability underflows to 0; a word with one
    path pays no ``exp``/``log`` round trip.  The context token is the
    analysis with the larger share (tag or word; the first on a tie), which
    keeps scoring deterministic.  Unknown words score as the unknown token.
    """
    return lm._surface(context[-(lm.order - 1):] if lm.order > 1 else (), word)


# -- model files ---------------------------------------------------------------

_BOW_ONLY = -99.0  # sentinel logprob for grams that exist only as contexts
# How far above 0 a stored log10-prob may sit: a trained model can write a
# probability a rounding error above 1, and nothing larger is a probability.
_LOGPROB_TOLERANCE = 1e-6
_LOG10_MAX = math.log10(sys.float_info.max)  # the log10 of the largest float


def write_arpa(lm: NGramLM, path) -> None:
    # A gram that is only a context is written with the sentinel log-prob.
    grams = {*lm.logprobs, *(ctx for ctx in lm.backoffs if 1 <= len(ctx) < lm.order)}
    by_order = [sorted(g for g in grams if len(g) == k) for k in range(1, lm.order + 1)]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\\data\\\n")
        f.writelines(f"ngram {k}={len(section)}\n" for k, section in enumerate(by_order, 1))
        for k, section in enumerate(by_order, 1):
            f.write(f"\n\\{k}-grams:\n")
            for gram in section:
                line = f"{lm.logprobs.get(gram, _BOW_ONLY)!r}\t{' '.join(gram)}"
                if k < lm.order and gram in lm.backoffs:
                    line += f"\t{lm.backoffs[gram]!r}"
                f.write(line + "\n")
        f.write("\n\\end\\\n")


def read_arpa(path) -> NGramLM:
    """A model from the back-off text format; fields split on whitespace.

    The header declares ``ngram k=n`` for k = 1, 2, ... in turn; each
    section's grams are of a declared order, none listed twice, and their
    number is the declared one.
    """
    logprobs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    declared: list[tuple[int, int]] = []  # (count, line number), by order
    seen: set[tuple[str, ...]] = set()
    section = None
    # (back-off, line number, line) of the largest and smallest back-off
    largest_bow = (-math.inf, 0, "")
    smallest_bow = (math.inf, 0, "")
    with open_text(path) as f:
        lines = enumerate(f, 1)
        if not any(raw.strip() == "\\data\\" for _, raw in lines):
            raise InputFormatError(f"{path}: missing \\data\\ header")
        for i, raw in lines:
            line = raw.strip()
            if not line:
                continue
            if line == "\\end\\":
                break
            if line.startswith("ngram "):
                try:
                    k, count = map(int, line[len("ngram "):].split("="))
                except ValueError:
                    raise InputFormatError(f"{path}:{i}: bad ngram declaration") from None
                if k != len(declared) + 1:
                    raise InputFormatError(
                        f"{path}:{i}: expected 'ngram {len(declared) + 1}=<count>', got {line!r}")
                declared.append((count, i))
                continue
            if line.startswith("\\") and line.endswith("-grams:"):
                try:
                    section = int(line[1:-len("-grams:")])
                except ValueError:
                    raise InputFormatError(f"{path}:{i}: bad section header {line!r}") from None
                if not 1 <= section <= len(declared):
                    raise InputFormatError(
                        f"{path}:{i}: {section}-grams section, but no 'ngram {section}=<count>'")
                continue
            if section is None:
                raise InputFormatError(f"{path}:{i}: gram line outside a section")
            parts = line.split()
            words = tuple(parts[1 : 1 + section])
            try:
                p10 = float(parts[0])
                bow = float(parts[1 + section]) if len(parts) > 1 + section else None
            except ValueError:
                raise InputFormatError(f"{path}:{i}: bad gram line {line!r}") from None
            if len(words) != section:
                raise InputFormatError(
                    f"{path}:{i}: expected a {section}-gram, got {len(words)} tokens"
                )
            if len(parts) > 2 + section:
                raise InputFormatError(f"{path}:{i}: fields after the back-off in {line!r}")
            if words in seen:
                raise InputFormatError(f"{path}:{i}: {section}-gram {' '.join(words)!r} listed twice")
            seen.add(words)
            # A log-prob of -99 or -inf marks a gram kept only as a context.
            if not p10 < math.inf:
                raise InputFormatError(f"{path}:{i}: non-finite log-prob in {line!r}")
            if bow is not None and not math.isfinite(bow):
                raise InputFormatError(f"{path}:{i}: non-finite back-off in {line!r}")
            if p10 > _LOGPROB_TOLERANCE:
                raise InputFormatError(f"{path}:{i}: log-prob above 0 in {line!r}")
            if p10 > _BOW_ONLY + 0.5:
                logprobs[words] = p10
            if bow is not None:
                backoffs[words] = bow
                if bow > largest_bow[0]:
                    largest_bow = (bow, i, line)
                if bow < smallest_bow[0]:
                    smallest_bow = (bow, i, line)
    read = Counter(map(len, seen))
    for k, (count, i) in enumerate(declared, 1):
        if read[k] != count:
            raise InputFormatError(f"{path}:{i}: ngram {k}={count} declared, {read[k]} read")
    order = len(declared)
    if not logprobs:
        raise InputFormatError(f"{path}: no grams found")
    # A score charges at most order - 1 back-offs on top of one log-prob.
    # Their sum must stay within the log of the largest float either way:
    # above it the score is no probability, and the bound below keeps every
    # word's score a fixed distance from 0, so a sum of scores stays finite.
    charges = max(order - 1, 1)
    bow, i, line = largest_bow
    if charges * bow + _LOGPROB_TOLERANCE > _LOG10_MAX:
        raise InputFormatError(f"{path}:{i}: back-off too large to score in {line!r}")
    bow, i, line = smallest_bow
    if charges * bow < -_LOG10_MAX:
        raise InputFormatError(f"{path}:{i}: back-off too small to score in {line!r}")
    # Every sentence ends in EOS_WORD, and a word outside the model scores as UNK.
    missing = [w for w in (EOS_WORD, UNK) if (w,) not in logprobs]
    if missing:
        raise InputFormatError(f"{path}: no unigram log-prob for {' '.join(missing)}")
    vocab = frozenset(g[0] for g in logprobs if len(g) == 1)
    return NGramLM(order=order, logprobs=logprobs, backoffs=backoffs, vocab=vocab)


def write_members(lm: NGramLM, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for tag, members in sorted(lm.classes.items()):
            for word, lp in sorted(members.items()):
                f.write(f"{tag}\t{word}\t{lp!r}\n")


def read_members(path) -> dict[str, dict[str, float]]:
    classes: dict[str, dict[str, float]] = defaultdict(dict)
    with open_text(path) as f:
        for where, line in records(f, path):
            parts = line.split("\t")
            if len(parts) != 3 or not parts[0].startswith("@"):
                raise InputFormatError(f"{where}: expected 'tag<TAB>word<TAB>logprob'")
            try:
                logprob = float(parts[2])
            except ValueError:
                raise InputFormatError(f"{where}: bad logprob") from None
            if not math.isfinite(logprob):
                raise InputFormatError(f"{where}: non-finite logprob {parts[2]!r}")
            if logprob > _LOGPROB_TOLERANCE:
                raise InputFormatError(f"{where}: logprob above 0: {parts[2]!r}")
            # The same floor as summed back-offs, so a member's score stays finite.
            if logprob < -_LOG10_MAX:
                raise InputFormatError(f"{where}: logprob too small to score: {parts[2]!r}")
            members = classes[parts[0]]
            if parts[1] in members:
                raise InputFormatError(f"{where}: duplicate member {parts[1]!r} of {parts[0]!r}")
            members[parts[1]] = logprob
    return dict(classes)


def load_lm(arpa_path, members_path=None) -> NGramLM:
    lm = read_arpa(arpa_path)
    return lm if members_path is None else replace(lm, classes=read_members(members_path))
