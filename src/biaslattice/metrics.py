"""Word error rate, oracle error rate, and evaluation reports.

Alignment uses the standard unit-cost edit distance; at equal cost the
backtrace prefers substitutions over insertions over deletions, so
breakdowns are deterministic.  Corpus rates pool edit counts over all
utterances (they are not averages of per-utterance rates).  Relative change
versus a baseline is reported with improvements negative.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Iterable

from .decode import NBestList
from .errors import InputFormatError, open_text, records

_PUNCT = str.maketrans("", "", string.punctuation.replace("'", ""))


def normalize_words(text: str) -> list[str]:
    """Lowercase, strip punctuation (apostrophes kept), collapse whitespace."""
    return text.lower().translate(_PUNCT).split()


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return error_rate(self.errors, self.ref_len)


def error_rate(errors: int, ref_len: int) -> float:
    """Errors per reference word; with no reference words, 0 or infinity."""
    if ref_len > 0:
        return errors / ref_len
    return 0.0 if errors == 0 else math.inf


def wer(reference: list[str], hypothesis: list[str]) -> WerBreakdown:
    """Minimum-edit-distance alignment with unit costs.

    An empty reference against a nonempty hypothesis is insertion-only.
    """
    m, n = len(reference), len(hypothesis)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        dp[i][0] = i
    for j in range(1, n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        row = dp[i]
        prev = dp[i - 1]
        ref_word = reference[i - 1]
        for j in range(1, n + 1):
            row[j] = min(
                prev[j - 1] + (ref_word != hypothesis[j - 1]),
                row[j - 1] + 1,
                prev[j] + 1,
            )
    subs = dels = ins = 0
    i, j = m, n
    while i > 0 or j > 0:
        if (
            i > 0
            and j > 0
            and dp[i][j] == dp[i - 1][j - 1] + (reference[i - 1] != hypothesis[j - 1])
        ):
            subs += reference[i - 1] != hypothesis[j - 1]
            i -= 1
            j -= 1
        elif j > 0 and dp[i][j] == dp[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return WerBreakdown(substitutions=subs, deletions=dels, insertions=ins, ref_len=m)


def pool(breakdowns: Iterable[WerBreakdown]) -> WerBreakdown:
    """Corpus-level pooling of edit counts."""
    s = d = i = n = 0
    for b in breakdowns:
        s += b.substitutions
        d += b.deletions
        i += b.insertions
        n += b.ref_len
    return WerBreakdown(substitutions=s, deletions=d, insertions=i, ref_len=n)


def align_hyps(nbest: NBestList, ref: str | None = None) -> list[WerBreakdown]:
    """One breakdown per hypothesis, in rank order; ``ref`` defaults to the list's."""
    if not nbest.hyps:
        raise ValueError(f"empty n-best list for {nbest.utt_id}")
    ref_words = normalize_words(nbest.ref if ref is None else ref)
    return [wer(ref_words, normalize_words(h.text)) for h in nbest.hyps]


def _oracle(table: list[WerBreakdown]) -> WerBreakdown:
    """The minimum-error entry of an alignment table; ties break by rank."""
    return min(table, key=lambda b: b.errors)


def oracle_wer(nbest: NBestList) -> WerBreakdown:
    """Breakdown of the minimum-error hypothesis; ties break by rank."""
    return _oracle(align_hyps(nbest))


def ref_for(nbest: NBestList, refs: dict[str, str] | None) -> str:
    """The list's own transcript, or its entry in ``refs``, which must exist."""
    if refs is None:
        return nbest.ref
    if nbest.utt_id not in refs:
        raise InputFormatError(f"utterance {nbest.utt_id} missing from references")
    return refs[nbest.utt_id]


def werr(baseline_wer: float, system_wer: float) -> float:
    """Relative WER change in percent; improvements come out negative."""
    if baseline_wer == 0:
        raise ValueError("baseline WER is zero; relative change undefined")
    return 100.0 * (system_wer - baseline_wer) / baseline_wer


# -- evaluation reports ----------------------------------------------------------


def split_label(utt_id: str) -> str:
    """Test-set label from the id prefix, e.g. 'contacts-0042' -> 'contacts'."""
    head, sep, _ = utt_id.partition("-")
    return head if sep else "all"


@dataclass
class SplitReport:
    label: str
    utts: int
    breakdown: WerBreakdown
    oracle: WerBreakdown
    werr: float | None = None
    oracle_werr: float | None = None


@dataclass
class Report:
    splits: list[SplitReport]

    def split(self, label: str) -> SplitReport:
        for s in self.splits:
            if s.label == label:
                return s
        raise KeyError(label)


def evaluate(
    lists: list[NBestList],
    refs: dict[str, str] | None = None,
    *,
    baseline: list[NBestList] | None = None,
) -> Report:
    """Corpus and oracle WER per test-set label, optionally versus a baseline.

    References default to the transcripts carried in the n-best lists; a refs
    mapping overrides them and must then cover every utterance id.  With a
    baseline run, relative change of both rates is reported per split (the
    baseline must contain the same utterance ids).
    """
    def accumulate(run: list[NBestList]):
        per_split: dict[str, tuple[list[WerBreakdown], list[WerBreakdown]]] = {}
        for nb in run:
            table = align_hyps(nb, ref_for(nb, refs))
            top, ora = table[0], _oracle(table)
            # An id with no split prefix already belongs to "all" alone.
            for label in {split_label(nb.utt_id), "all"}:
                tops, oras = per_split.setdefault(label, ([], []))
                tops.append(top)
                oras.append(ora)
        return per_split

    system = accumulate(lists)
    base = accumulate(baseline) if baseline is not None else None
    if base is not None:
        sys_ids = {nb.utt_id for nb in lists}
        base_ids = {nb.utt_id for nb in baseline}
        if sys_ids != base_ids:
            raise InputFormatError("baseline and system utterance ids differ")

    splits = []
    order = sorted(label for label in system if label != "all") + ["all"]
    for label in order:
        tops, oras = system[label]
        sp = SplitReport(
            label=label, utts=len(tops), breakdown=pool(tops), oracle=pool(oras)
        )
        if base is not None and label in base:
            base_top = pool(base[label][0])
            base_ora = pool(base[label][1])
            if base_top.wer > 0:
                sp.werr = werr(base_top.wer, sp.breakdown.wer)
            if base_ora.wer > 0:
                sp.oracle_werr = werr(base_ora.wer, sp.oracle.wer)
        splits.append(sp)
    return Report(splits=splits)


def report_to_json(report: Report) -> dict:
    return {
        "splits": [
            {
                "label": s.label,
                "utts": s.utts,
                "wer": s.breakdown.wer,
                "oracle_wer": s.oracle.wer,
                "errors": {
                    "substitutions": s.breakdown.substitutions,
                    "deletions": s.breakdown.deletions,
                    "insertions": s.breakdown.insertions,
                    "ref_len": s.breakdown.ref_len,
                },
                "werr": s.werr,
                "oracle_werr": s.oracle_werr,
            }
            for s in report.splits
        ]
    }


def format_report(report: Report) -> str:
    def pct(v):
        return "--" if v is None else f"{v:+.1f}"

    lines = [
        f"{'split':<12}{'utts':>6}{'wer%':>9}{'oracle%':>9}{'werr%':>9}{'o-werr%':>9}"
    ]
    for s in report.splits:
        lines.append(
            f"{s.label:<12}{s.utts:>6}"
            f"{100 * s.breakdown.wer:>9.2f}{100 * s.oracle.wer:>9.2f}"
            f"{pct(s.werr):>9}{pct(s.oracle_werr):>9}"
        )
    return "\n".join(lines)


def read_refs(path) -> dict[str, str]:
    """References file: ``id<TAB>transcript`` per line."""
    refs: dict[str, str] = {}
    with open_text(path) as f:
        for where, line in records(f, path):
            utt_id, sep, text = line.partition("\t")
            if not sep or not utt_id.strip() or not text.strip():
                raise InputFormatError(f"{where}: expected 'id<TAB>transcript'")
            utt_id = utt_id.strip()
            if utt_id in refs:
                raise InputFormatError(f"{where}: duplicate utterance id {utt_id!r}")
            refs[utt_id] = text.strip()
    if not refs:
        raise InputFormatError(f"{path}: no references found")
    return refs


def write_refs(refs: dict[str, str], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for utt_id in sorted(refs):
            f.write(f"{utt_id}\t{refs[utt_id]}\n")
