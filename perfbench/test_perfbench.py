"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from biaslattice import synthdata  # noqa: E402
from biaslattice.context import ContextualBiaser, build_class_fst  # noqa: E402
from biaslattice.decode import (  # noqa: E402
    NullBiaser, SubwordBiaser, WordBiaser, beam_search, decode_corpus, synth_oracle,
)
from biaslattice.fst import build_catalog_fst  # noqa: E402
from biaslattice.lm import train_kn_lm  # noqa: E402
from biaslattice.rescore import DomainLms, RescoreConfig, rescore_corpus, tune  # noqa: E402

import run  # noqa: E402
from checks import check_nbest, check_rescored, check_tune  # noqa: E402
from spans import BiaserProxy, OracleProxy, Proxy, Tracer, span_totals  # noqa: E402


@pytest.fixture(scope="module")
def task():
    return synthdata.make_task(3, n_contacts=40, n_devices=5, n_apps=5, n_test=8, n_dev=8)


@pytest.fixture(scope="module")
def biasers(task):
    all_fst = build_catalog_fst(task.all_bias_entries())
    ctx = ContextualBiaser(
        build_class_fst(task.class_corpus, 10),
        {"@contactname": build_catalog_fst(task.contacts),
         "@devicename": build_catalog_fst(task.devices),
         "@appname": build_catalog_fst(task.apps)},
    )
    return {"none": None, "word": WordBiaser(all_fst), "subword": SubwordBiaser(all_fst),
            "context": ctx}


@pytest.fixture(scope="module")
def oracle(task):
    return synth_oracle(task.vocab, task.refs_test, noise=0.3, seed=3,
                        noisy_words=task.noisy_words)


def decode_all(oracle, biaser, vocab, lam):
    return [
        beam_search(oracle, biaser, vocab, lam, 8, 4, utt_id=u, ref=r,
                    max_steps=oracle.max_steps(u))
        for u, r in sorted(oracle.utterances())
    ]


@pytest.fixture(scope="module")
def decoded(task, biasers, oracle):
    return {kind: decode_all(oracle, b, task.vocab, 0.0 if b is None else 2.5)
            for kind, b in biasers.items()}


@pytest.fixture(scope="module")
def lms(task):
    return DomainLms(generic=train_kn_lm(task.generic_lm_corpus, 4),
                     contacts=train_kn_lm(task.contacts_lm_corpus, 4),
                     catalog_words=task.contact_words)


# -- proxies leave outputs unchanged ------------------------------------------------


@pytest.mark.parametrize("kind", ["none", "word", "subword", "context"])
def test_proxied_beam_search_is_identical(task, biasers, oracle, decoded, kind):
    tracer = Tracer()
    layer = run.DecodeWorkload.layers[kind]
    biaser = BiaserProxy(biasers[kind] or NullBiaser(), tracer, layer)
    lam = 0.0 if kind == "none" else 2.5
    assert decode_all(OracleProxy(oracle, tracer), biaser, task.vocab, lam) == decoded[kind]
    totals = tracer.totals()
    assert totals["decode.oracle"][0] > 0
    assert totals[f"{layer}.clone"][0] > 0 and totals[f"{layer}.step"][0] > 0
    assert tracer.counts["decode.candidates"] == totals[f"{layer}.clone"][0]


def test_proxied_second_pass_is_identical(task, biasers, lms):
    dev = decode_corpus(
        synth_oracle(task.vocab, task.refs_dev, noise=0.3, seed=4,
                     noisy_words=task.noisy_words),
        biasers["subword"], task.vocab, 2.5, 8, 4,
    )
    tracer = Tracer()
    proxied = DomainLms(generic=Proxy(lms.generic, tracer, "lm.logprob"),
                        contacts=Proxy(lms.contacts, tracer, "lm.logprob"),
                        catalog_words=lms.catalog_words)
    want = tune(dev, task.refs_dev, lms, budget=60, seed=1)
    assert tune(dev, task.refs_dev, proxied, budget=60, seed=1) == want
    config = want.config
    assert rescore_corpus(dev, config, proxied) == rescore_corpus(dev, config, lms)
    assert tracer.totals()["lm.logprob"][0] > 0


# -- spans ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] contains b [1, 4] and d [5, 9]; b contains c [2, 3].
    names = ["a", "b", "c", "d"]
    name = [0, 1, 2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    totals = span_totals(names, name, parent, start, end)
    assert totals == {"a": (1, 10.0, 3.0), "b": (1, 3.0, 2.0), "c": (1, 1.0, 1.0),
                      "d": (1, 4.0, 4.0)}


def test_self_time_aggregates_repeated_names():
    totals = span_totals(["outer", "inner"], [0, 1, 1], [-1, 0, 0],
                         [0.0, 1.0, 3.0], [6.0, 2.0, 5.0])
    assert totals["outer"] == (1, 6.0, 3.0)
    assert totals["inner"] == (2, 3.0, 3.0)


def test_tracer_links_nested_calls_to_their_parent():
    tracer = Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    tracer.set_request("w/k/u1")
    tracer.call(outer, lambda: [tracer.call(inner, lambda: None) for _ in range(2)])
    tracer.call(inner, lambda: None)
    assert list(tracer.parent) == [-1, 0, 0, -1]
    assert [tracer.requests[r] for r in tracer.request] == ["w/k/u1"] * 4
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    calls, total, own = tracer.totals()["outer"]
    assert calls == 1 and 0.0 <= own <= total


def test_tracer_closes_a_span_that_raises():
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.call(tracer.name_id("boom"), lambda: 1 / 0)
    tracer.call(tracer.name_id("after"), lambda: None)
    assert list(tracer.parent) == [-1, -1]


# -- output checks -------------------------------------------------------------------


def test_checks_accept_real_decodes(task, decoded):
    for kind, lists in decoded.items():
        weight = None if kind == "none" else task.catalog_weight
        lam = 0.0 if kind == "none" else 2.5
        for nb in lists:
            assert check_nbest(nb, task.vocab, lam=lam, n_best=4, weight=weight) == []


def biased_list(task, decoded):
    """A subword n-best list with at least two distinct fused scores."""
    return next(nb for nb in decoded["subword"]
                if len({h.fused for h in nb.hyps}) > 1 and any(h.sf_score for h in nb.hyps))


def test_checks_reject_swapped_ranks(task, decoded):
    nb = biased_list(task, decoded)
    i = next(i for i in range(len(nb.hyps) - 1) if nb.hyps[i].fused != nb.hyps[i + 1].fused)
    hyps = list(nb.hyps)
    hyps[i], hyps[i + 1] = hyps[i + 1], hyps[i]
    bad = dataclasses.replace(nb, hyps=hyps)
    problems = check_nbest(bad, task.vocab, lam=2.5, n_best=4, weight=task.catalog_weight)
    assert any("not sorted" in p for p in problems)


def test_checks_reject_sf_score_off_by_half(task, decoded):
    nb = biased_list(task, decoded)
    h = nb.hyps[0]
    off = dataclasses.replace(h, sf_score=h.sf_score + 0.5,
                              fused=h.rnnt_logp + 2.5 * (h.sf_score + 0.5))
    bad = dataclasses.replace(nb, hyps=[off] + nb.hyps[1:])
    problems = check_nbest(bad, task.vocab, lam=2.5, n_best=4, weight=task.catalog_weight)
    assert any("not a multiple" in p for p in problems)


def test_checks_reject_broken_fusion_text_and_unbiased_score(task, decoded):
    nb = decoded["none"][0]
    h = nb.hyps[0]
    broken = [dataclasses.replace(h, fused=h.fused + 1e-6),
              dataclasses.replace(h, text=h.text + " x"),
              dataclasses.replace(h, sf_score=1.8, fused=h.rnnt_logp)]
    expected = ["fused", "detokenize", "without a biaser"]
    for hyp, word in zip(broken, expected):
        bad = dataclasses.replace(nb, hyps=[hyp])
        problems = check_nbest(bad, task.vocab, lam=0.0, n_best=4, weight=None)
        assert any(word in p for p in problems), (word, problems)


def test_rescore_and_tune_checks(task, decoded, lms):
    config = RescoreConfig(alpha=1.0, beta=0.5)
    nb = decoded["subword"][0]
    good = rescore_corpus([nb], config, lms)[0]
    assert check_rescored(nb, good, config, lms) == []
    dropped = dataclasses.replace(good, hyps=good.hyps[:-1])
    assert check_rescored(nb, dropped, config, lms)
    if len(good.hyps) > 1:
        reversed_ = dataclasses.replace(good, hyps=good.hyps[::-1])
        if [h.tokens for h in reversed_.hyps] != [h.tokens for h in good.hyps]:
            assert check_rescored(nb, reversed_, config, lms)
    result = tune(decoded["subword"], task.refs_test, lms, budget=40, seed=1)
    assert check_tune(result, budget=40, fix_alpha=False) == []
    assert check_tune(result, budget=41, fix_alpha=False)
    worse = dataclasses.replace(result, wer=result.wer + 0.01)
    assert check_tune(worse, budget=40, fix_alpha=False)


# -- failure accounting --------------------------------------------------------------


class _Checked:
    def check(self, key, out):
        return [] if out == "ok" else [f"{key}: bad"]


def test_ledger_counts_raises_failed_checks_and_changed_repeats():
    ledger = run.Ledger(_Checked())
    clock = run.HostClock()
    first = run.Pass(clock)
    first.record(("k", "a"), 0.1, "ok")
    first.record(("k", "b"), 0.1, "bad")
    first.record(("k", "c"), 0.1, ValueError("boom"))
    ledger.judge(first)
    again = run.Pass(clock)
    again.record(("k", "a"), 0.1, "changed")
    again.record(("k", "b"), 0.1, "bad")
    ledger.judge(again)
    assert (ledger.attempted, ledger.failed) == (5, 3)
    assert [(key, measured) for key, measured, _ in first.times] == [
        (("k", "a"), 0.1), (("k", "b"), 0.1)]


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert run.percentile(values, 50) == 100
    assert run.percentile(values, 95) == 190
    assert sum(v > run.percentile(values, 95) for v in values) == 10
