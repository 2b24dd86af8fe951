"""Output checks, n-best digests and WER summaries for the benchmark.

Each check returns a list of problems; an empty list means the output passed.
The invariants hold for every decode and rescore at the seed commit, so any
problem is a correctness regression, not noise.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter

from biaslattice.decode import NBestList, write_nbest
from biaslattice.metrics import normalize_words, pool, split_label, wer
from biaslattice.rescore import DEFAULT_BOUNDS, route_lm, second_pass_score
from biaslattice.wordpiece import detokenize

FUSED_TOL = 1e-9
MULTIPLE_TOL = 1e-6


def check_nbest(nb: NBestList, vocab, *, lam: float, n_best: int,
                weight: float | None) -> list[str]:
    """Problems with one first-pass n-best list.

    ``weight`` is the uniform catalog weight, or None for the no-biaser kind.
    Lookahead pushes are paid back or trued up by the end of a hypothesis, so
    every finished biased score is a whole number of catalog arcs.
    """
    problems = []
    if not 1 <= len(nb.hyps) <= n_best:
        problems.append(f"{len(nb.hyps)} hypotheses, expected 1..{n_best}")
    if nb.lam != lam:
        problems.append(f"lambda {nb.lam} != {lam}")
    keys = [(-h.fused, h.tokens) for h in nb.hyps]
    if keys != sorted(keys):
        problems.append("not sorted by fused score")
    for rank, h in enumerate(nb.hyps):
        if abs(h.fused - (h.rnnt_logp + lam * h.sf_score)) > FUSED_TOL:
            problems.append(f"rank {rank}: fused != rnnt_logp + lambda * sf_score")
        if h.text != detokenize(vocab, h.tokens):
            problems.append(f"rank {rank}: text != detokenize(tokens)")
        if weight is None:
            if h.sf_score != 0.0:
                problems.append(f"rank {rank}: sf_score {h.sf_score} without a biaser")
        elif abs(h.sf_score - weight * round(h.sf_score / weight)) > MULTIPLE_TOL:
            problems.append(f"rank {rank}: sf_score {h.sf_score} not a multiple of {weight}")
    return [f"{nb.utt_id}: {p}" for p in problems]


def check_rescored(before: NBestList, after: NBestList, config, lms) -> list[str]:
    """Problems with one rescored list: it must re-rank the same hypotheses by
    the second-pass score, keeping first-pass order on ties."""
    problems = []
    if (after.utt_id, after.ref, after.lam) != (before.utt_id, before.ref, before.lam):
        problems.append("utterance id, reference or lambda changed")
    if Counter(after.hyps) != Counter(before.hyps):
        problems.append("hypotheses are not a permutation of the input")
        return [f"{before.utt_id}: {p}" for p in problems]
    lm = route_lm(before, lms) if lms.contacts is not None else lms.generic
    rank = {h.tokens: i for i, h in enumerate(before.hyps)}
    keys = [
        (-second_pass_score(h, before.lam, config, lm.logprob(h.text.split())), rank[h.tokens])
        for h in after.hyps
    ]
    if keys != sorted(keys):
        problems.append("not sorted by second-pass score with stable ties")
    return [f"{before.utt_id}: {p}" for p in problems]


def check_tune(result, *, budget: int, fix_alpha: bool) -> list[str]:
    """Problems with one ``tune`` result."""
    problems = []
    a_lo, a_hi, b_lo, b_hi = DEFAULT_BOUNDS
    cfg = result.config
    if len(result.evaluated) != budget:
        problems.append(f"{len(result.evaluated)} evaluations, budget {budget}")
    if not (a_lo <= cfg.alpha <= a_hi and b_lo <= cfg.beta <= b_hi):
        problems.append(f"config {cfg} outside the search bounds")
    if fix_alpha and cfg.alpha != 1.0:
        problems.append(f"alpha {cfg.alpha} moved while fixed")
    if result.evaluated and result.wer != min(w for _, _, w in result.evaluated):
        problems.append("returned WER is not the best evaluated")
    if result.evaluated and result.wer > result.evaluated[0][2]:
        problems.append("result loses to the (1, 0) seed")
    return [f"tune(fix_alpha={fix_alpha}): {p}" for p in problems]


def nbest_digest(lists: list[NBestList], path) -> str:
    """SHA-256 of the n-best file ``write_nbest`` writes for ``lists``."""
    write_nbest(lists, path)
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    finally:
        os.remove(path)


def split_wer_pct(lists: list[NBestList]) -> dict[str, float]:
    """Pooled 1-best WER in percent for each split label."""
    by_split: dict[str, list] = {}
    for nb in lists:
        b = wer(normalize_words(nb.ref), normalize_words(nb.hyps[0].text))
        by_split.setdefault(split_label(nb.utt_id), []).append(b)
    return {label: 100.0 * pool(bs).wer for label, bs in sorted(by_split.items())}
