"""Second-pass n-best rescoring and (alpha, beta) optimization.

Each hypothesis is rescored as

    score = rnnt_logp + alpha * (lam * sf_score) + beta * logprob(text)

where ``lam`` is the first-pass fusion scale stored with the n-best list, so
alpha = 1, beta = 0 reproduces first-pass ranking exactly, and alpha != 1
re-weights ("de-biases") the first-pass biasing contribution.  A bound
contacts model rescores every list in which a hypothesis mentions a catalog
word, and the generic model the rest.  The (alpha, beta) pair is tuned by
simulated annealing against the WER of the rescored 1-best, with a coarse
seed grid evaluated first so the result can never be worse than the seeds.
The tuned WER (``tune --out``'s ``dev_wer``) is the pooled 1-best WER that
:func:`metrics.evaluate` (``eval``) reports for the rescored dev lists: both
rank as :func:`rescore_corpus` does and pool errors as ``metrics.pool`` does.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field

from .decode import Hypothesis, NBestList
from .lm import NGramLM
from .metrics import align_hyps, error_rate

log = logging.getLogger(__name__)

DEFAULT_BOUNDS = (-2.0, 4.0, 0.0, 4.0)  # alpha_lo, alpha_hi, beta_lo, beta_hi
_SEED_GRID = 5  # points per axis of the coarse seed grid


@dataclass(frozen=True)
class RescoreConfig:
    alpha: float = 1.0   # re-weight of the first-pass biasing contribution
    beta: float = 0.0    # rescoring LM weight

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("non-finite rescoring weights")


@dataclass
class DomainLms:
    """The rescoring models plus the catalog words that trigger routing.

    ``catalog_words`` are lowercase, as :func:`fst.load_catalog` reads them,
    and hypothesis words are lowercased before they are matched, so routing
    ignores case as the models do.  Scorers get the lowercased words.

    Any scorer with an ``nbest_logprob(sentences) -> list[float]`` method
    plugs in: it gets one n-best list's hypotheses as lists of words and
    returns one log-probability per hypothesis, in order.  The bundled
    back-off n-gram model is just the default choice; its batched scores are
    ``==`` to :meth:`lm.NGramLM.logprob` of each hypothesis.
    """

    generic: NGramLM
    contacts: NGramLM | None = None
    catalog_words: frozenset[str] = frozenset()


def route_lm(nbest: NBestList, lms: DomainLms) -> NGramLM:
    """Pick the contacts model iff any hypothesis mentions a catalog word,
    in any case."""
    if lms.contacts is None:
        raise ValueError("contacts domain is unbound")
    return _route(nbest, _sentences(nbest), lms)


def _sentences(nbest: NBestList) -> list[list[str]]:
    """Each hypothesis's lowercased words, split once for routing and scoring."""
    return [hyp.text.lower().split() for hyp in nbest.hyps]


def _route(nbest: NBestList, sentences: list[list[str]], lms: DomainLms) -> NGramLM:
    """:func:`route_lm` over the list's split hypotheses."""
    for hyp, words in zip(nbest.hyps, sentences):
        if not lms.catalog_words.isdisjoint(words):
            log.debug("utt %s routed to contacts LM (%r)", nbest.utt_id, hyp.text)
            return lms.contacts
    log.debug("utt %s routed to generic LM", nbest.utt_id)
    return lms.generic


def _list_logprobs(nbest: NBestList, lms: DomainLms) -> list[float]:
    """The LM log-prob of each hypothesis, under the routed model when the
    contacts domain is bound, else under the generic one: one batched call."""
    sentences = _sentences(nbest)
    lm = lms.generic if lms.contacts is None else _route(nbest, sentences, lms)
    return lm.nbest_logprob(sentences)


def second_pass_score(hyp: Hypothesis, lam: float, config: RescoreConfig, lm_lp: float) -> float:
    return hyp.rnnt_logp + config.alpha * (lam * hyp.sf_score) + config.beta * lm_lp


def rescore_corpus(
    lists: list[NBestList], config: RescoreConfig, lms: DomainLms
) -> list[NBestList]:
    """Re-rank each list, scored by one ``nbest_logprob`` call of its routed
    model; pure, and stable under score ties."""
    out = []
    for nb in lists:
        scored = [
            (second_pass_score(hyp, nb.lam, config, lm_lp), hyp)
            for hyp, lm_lp in zip(nb.hyps, _list_logprobs(nb, lms))
        ]
        # sorted() is stable: ties keep first-pass order.
        reranked = [h for _, h in sorted(scored, key=lambda sh: -sh[0])]
        out.append(NBestList(utt_id=nb.utt_id, ref=nb.ref, lam=nb.lam, hyps=reranked))
    return out


# -- tuning ---------------------------------------------------------------------


@dataclass
class TuneResult:
    config: RescoreConfig
    wer: float
    evaluated: list[tuple[float, float, float]] = field(default_factory=list)


class _Objective:
    """Pooled WER of the rescored 1-best as a function of (alpha, beta).

    This is :func:`rescore_corpus` followed by :func:`metrics.pool`, with
    everything that does not depend on (alpha, beta) computed once: each row
    is ``(rnnt_logp, lam * sf_score, logprob, errors)``, its LM log-prob
    taken from the same one ``nbest_logprob`` call per list that
    ``rescore_corpus`` makes, and ``ref_len`` sums the reference lengths as
    ``pool`` does.  ``max`` returns the first maximal row, which heads
    ``rescore_corpus``'s stable sort.
    """

    def __init__(self, dev: list[NBestList], refs: dict[str, str], lms: DomainLms):
        self.items = []
        self.ref_len = 0
        for nb in dev:
            table = align_hyps(nb, refs.get(nb.utt_id))
            self.items.append([
                (hyp.rnnt_logp, nb.lam * hyp.sf_score, lm_lp, b.errors)
                for hyp, lm_lp, b in zip(nb.hyps, _list_logprobs(nb, lms), table)
            ])
            self.ref_len += table[0].ref_len

    def __call__(self, alpha: float, beta: float) -> float:
        errors = sum(
            max(rows, key=lambda r: r[0] + alpha * r[1] + beta * r[2])[3]
            for rows in self.items
        )
        return error_rate(errors, self.ref_len)


def seed_points(bounds, fix_alpha: bool) -> list[tuple[float, float]]:
    """The points :func:`tune` evaluates first, in order, without duplicates."""
    a_lo, a_hi, b_lo, b_hi = bounds
    clip = lambda v, lo, hi: min(max(v, lo), hi)
    points = [(clip(1.0, a_lo, a_hi), clip(0.0, b_lo, b_hi)),
              (clip(0.0, a_lo, a_hi), clip(0.0, b_lo, b_hi))]
    alphas = (
        [clip(1.0, a_lo, a_hi)]
        if fix_alpha
        else [a_lo + (a_hi - a_lo) * i / (_SEED_GRID - 1) for i in range(_SEED_GRID)]
    )
    betas = [b_lo + (b_hi - b_lo) * i / (_SEED_GRID - 1) for i in range(_SEED_GRID)]
    points.extend((a, b) for a in alphas for b in betas)
    return list(dict.fromkeys(points))


def tune(
    dev: list[NBestList],
    refs: dict[str, str],
    lms: DomainLms,
    *,
    bounds: tuple[float, float, float, float] = DEFAULT_BOUNDS,
    budget: int = 400,
    seed: int = 0,
    fix_alpha: bool = False,
    extra_seeds: tuple[tuple[float, float], ...] = (),
) -> TuneResult:
    """Minimize dev-set WER of the rescored 1-best over (alpha, beta).

    Seed points — (1, 0), (0, 0), a coarse grid, and any ``extra_seeds`` —
    are always evaluated first, then simulated annealing (geometric cooling,
    Gaussian proposals, restarts at the incumbent) spends the remaining
    budget.  The returned config is the best point evaluated, so it is never
    worse than any seed.  WER plateaus break toward alpha closest to 1, then
    beta closest to 0.  With ``fix_alpha`` alpha stays pinned at 1 and only
    beta moves (the no-de-biasing baseline).
    """
    if not dev:
        raise ValueError("empty dev set")
    a_lo, a_hi, b_lo, b_hi = bounds
    if not (a_lo <= a_hi and b_lo <= b_hi) or not all(
        math.isfinite(v) for v in bounds
    ):
        raise ValueError(f"invalid bounds {bounds}")

    objective = _Objective(dev, refs, lms)
    key = lambda a, b, w: (w, abs(a - 1.0), abs(b))
    evaluated: list[tuple[float, float, float]] = []

    def probe(a: float, b: float) -> float:
        w = objective(a, b)
        evaluated.append((a, b, w))
        return w

    seeds = seed_points(bounds, fix_alpha)
    seeds.extend(
        (min(max(a, a_lo), a_hi), min(max(b, b_lo), b_hi)) for a, b in extra_seeds
    )
    if budget < len(seeds):
        raise ValueError(f"budget {budget} smaller than the seed grid ({len(seeds)})")
    best = None
    for a, b in seeds:
        if fix_alpha:
            a = min(max(1.0, a_lo), a_hi)
        w = probe(a, b)
        if best is None or key(a, b, w) < key(*best):
            best = (a, b, w)

    rng = random.Random(seed)
    cur = best
    temperature = 0.05
    cooling = 0.97
    stall = 0
    a_scale = 0.25 * (a_hi - a_lo) or 0.1
    b_scale = 0.25 * (b_hi - b_lo) or 0.1
    for _ in range(budget - len(seeds)):
        if fix_alpha:
            a = cur[0]
        else:
            a = min(max(cur[0] + rng.gauss(0.0, a_scale), a_lo), a_hi)
        b = min(max(cur[1] + rng.gauss(0.0, b_scale), b_lo), b_hi)
        w = probe(a, b)
        if key(a, b, w) < key(*best):
            best = (a, b, w)
            stall = 0
        else:
            stall += 1
        delta = w - cur[2]
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            cur = (a, b, w)
        temperature *= cooling
        if stall >= max(20, budget // 8):
            cur = best  # restart at the incumbent
            stall = 0
    alpha, beta, best_wer = best
    return TuneResult(
        config=RescoreConfig(alpha=alpha, beta=beta),
        wer=best_wer,
        evaluated=evaluated,
    )
