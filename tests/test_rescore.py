import itertools
import random

import pytest

from biaslattice.decode import (
    Hypothesis,
    NBestList,
    SubwordBiaser,
    SynthOracle,
    decode_corpus,
)
from biaslattice.fst import build_catalog_fst
from biaslattice.lm import train_kn_lm
from biaslattice.metrics import normalize_words, pool, wer
from biaslattice.rescore import (
    DomainLms,
    RescoreConfig,
    TuneResult,
    rescore_corpus,
    route_lm,
    tune,
)
from biaslattice.synthdata import make_task


def hyp(text, rnnt, sf, lam):
    return Hypothesis(tokens=tuple(text.split()), text=text, rnnt_logp=rnnt,
                      sf_score=sf, fused=rnnt + lam * sf)


def mk_list(utt_id, ref, rows, lam=1.5):
    hyps = [hyp(t, r, s, lam) for t, r, s in rows]
    hyps.sort(key=lambda h: -h.fused)
    return NBestList(utt_id=utt_id, ref=ref, lam=lam, hyps=hyps)


@pytest.fixture(scope="module")
def generic_lm():
    return train_kn_lm(["play some music"] * 5 + ["what time is it"] * 5, order=3)


@pytest.fixture(scope="module")
def contacts_lm():
    lines = ["call @contactname(ada)"] * 4 + ["call @contactname(grace)"] * 4
    lines += ["play some music"] * 3
    return train_kn_lm(lines, order=3)


@pytest.fixture()
def lms(generic_lm, contacts_lm):
    return DomainLms(generic=generic_lm, contacts=contacts_lm,
                     catalog_words=frozenset({"ada", "grace"}))


class TestRescore:
    def test_first_pass_identity(self, generic_lm):
        rng = random.Random(3)
        for _ in range(30):
            rows = [
                (f"w{i} x{rng.randint(0, 3)}", -rng.random() * 5, rng.uniform(-2, 2))
                for i in range(6)
            ]
            nb = mk_list("u", "w0", rows, lam=rng.choice([0.0, 1.0, 2.5]))
            (out,) = rescore_corpus([nb], RescoreConfig(alpha=1.0, beta=0.0),
                                    DomainLms(generic=generic_lm))
            assert [h.text for h in out.hyps] == [h.text for h in nb.hyps]

    def test_alpha_zero_beta_zero_ranks_by_rnnt(self, generic_lm):
        nb = mk_list("u", "a", [("a", -3.0, 10.0), ("b", -1.0, -10.0), ("c", -2.0, 0.0)])
        (out,) = rescore_corpus([nb], RescoreConfig(alpha=0.0, beta=0.0),
                                DomainLms(generic=generic_lm))
        assert [h.text for h in out.hyps] == ["b", "c", "a"]

    def test_argmax_matches_brute_force(self, generic_lm):
        rng = random.Random(9)
        for _ in range(40):
            rows = [
                ("play some music" if rng.random() < 0.5 else f"word{i}",
                 -rng.random() * 4, rng.uniform(-3, 3))
                for i in range(5)
            ]
            nb = mk_list("u", "play some music", rows, lam=1.5)
            config = RescoreConfig(alpha=rng.uniform(-2, 3), beta=rng.uniform(0, 3))
            (out,) = rescore_corpus([nb], config, DomainLms(generic=generic_lm))
            def brute(h):
                return (h.rnnt_logp + config.alpha * (nb.lam * h.sf_score)
                        + config.beta * generic_lm.logprob(h.text.split()))

            best = max(nb.hyps, key=brute)
            assert brute(out.hyps[0]) == pytest.approx(brute(best), abs=1e-12)

    def test_pure_function(self, generic_lm):
        nb = mk_list("u", "a", [("a", -1.0, 1.0), ("b", -2.0, 2.0)])
        config = RescoreConfig(alpha=0.7, beta=0.3)
        lms = DomainLms(generic=generic_lm)
        a = rescore_corpus([nb], config, lms)
        b = rescore_corpus([nb], config, lms)
        assert a == b
        assert nb.hyps[0].fused == pytest.approx(nb.hyps[0].rnnt_logp + nb.lam * nb.hyps[0].sf_score)

    def test_common_scale_preserves_argmax(self, generic_lm):
        # scaling rnnt, sf, and the LM term by one positive constant must not
        # change which hypothesis wins
        rng = random.Random(17)
        nb = mk_list("u", "a", [(f"t{i}", -rng.random() * 3, rng.uniform(-2, 2))
                                for i in range(5)])
        config = RescoreConfig(alpha=0.8, beta=0.9)
        for c in (0.5, 2.0, 7.3):
            def score(h, scale=1.0):
                lm_lp = generic_lm.logprob(h.text.split())
                return scale * (h.rnnt_logp + config.alpha * (nb.lam * h.sf_score)
                                + config.beta * lm_lp)

            base = max(nb.hyps, key=lambda h: score(h))
            scaled = max(nb.hyps, key=lambda h: score(h, c))
            assert base is scaled


class TestRouting:
    def test_catalog_hit_routes_to_contacts(self, lms):
        nb = mk_list("u", "call ada", [("call ada", -1.0, 0.0), ("call otto", -2.0, 0.0)])
        assert route_lm(nb, lms) is lms.contacts

    def test_no_hit_routes_to_generic(self, lms):
        nb = mk_list("u", "play music", [("play music", -1.0, 0.0)])
        assert route_lm(nb, lms) is lms.generic

    def test_empty_catalog_always_generic(self, generic_lm, contacts_lm):
        lms = DomainLms(generic=generic_lm, contacts=contacts_lm,
                        catalog_words=frozenset())
        nb = mk_list("u", "call ada", [("call ada", -1.0, 0.0)])
        assert route_lm(nb, lms) is lms.generic

    def test_order_invariance(self, lms):
        rows = [("x y", -1.0, 0.0), ("call grace", -2.0, 0.0), ("z", -3.0, 0.0)]
        for perm in itertools.permutations(rows):
            nb = mk_list("u", "call grace", list(perm))
            assert route_lm(nb, lms) is lms.contacts

    @pytest.mark.parametrize("text", ["call ada", "call ADA", "Call Ada"])
    def test_routing_ignores_case(self, lms, text):
        # The contacts model ranks the catalog text first, the generic one last.
        nb = mk_list("u", "call ada", [("play some music", -1.0, 0.0), (text, -1.0, 0.0)])
        assert route_lm(nb, lms) is lms.contacts
        config = RescoreConfig(beta=1.0)
        out = rescore_corpus([nb], config, lms)
        assert out == rescore_corpus([nb], config, DomainLms(generic=lms.contacts))
        assert out[0].hyps[0].text == text

    def test_unbound_contacts_rejected(self, generic_lm):
        lms = DomainLms(generic=generic_lm, contacts=None)
        nb = mk_list("u", "a", [("a", -1.0, 0.0)])
        with pytest.raises(ValueError, match="unbound"):
            route_lm(nb, lms)


class TestTune:
    def make_dev(self, generic_lm):
        # Utterance 1: the truth needs de-biasing (alpha below ~0.5) to win.
        u1 = mk_list(
            "general-1", "play some music",
            [("play some music", -2.0, 0.0), ("play some musil", -1.0, 2.0)],
            lam=1.0,
        )
        # Utterance 2: the truth needs the LM (beta above ~0.4) to win.
        u2 = mk_list(
            "general-2", "what time is it",
            [("what time is it", -2.2, 0.0), ("what tame is it", -2.0, 0.0)],
            lam=1.0,
        )
        return [u1, u2]

    def test_seeded_points_bound_result(self, generic_lm):
        dev = self.make_dev(generic_lm)
        lms = DomainLms(generic=generic_lm)
        result = tune(dev, {}, lms, budget=80, seed=1)
        assert isinstance(result, TuneResult)
        evaluated = {(a, b): w for a, b, w in result.evaluated}
        assert (1.0, 0.0) in evaluated
        assert (0.0, 0.0) in evaluated
        assert all(result.wer <= w for w in evaluated.values())

    def test_attains_dense_grid_optimum(self, generic_lm):
        dev = self.make_dev(generic_lm)
        lms = DomainLms(generic=generic_lm)
        result = tune(dev, {}, lms, budget=120, seed=3)

        from biaslattice.rescore import _Objective

        objective = _Objective(dev, {}, lms)
        grid_best = min(
            objective(a / 10.0, b / 10.0)
            for a in range(-20, 41, 1)
            for b in range(0, 41, 1)
        )
        assert result.wer == grid_best == 0.0

    def test_fix_alpha_stays_pinned(self, generic_lm):
        dev = self.make_dev(generic_lm)
        lms = DomainLms(generic=generic_lm)
        result = tune(dev, {}, lms, budget=80, seed=2, fix_alpha=True)
        assert result.config.alpha == 1.0
        assert all(a == 1.0 for a, _, _ in result.evaluated)

    def test_free_alpha_never_worse_than_fixed(self, generic_lm):
        dev = self.make_dev(generic_lm)
        lms = DomainLms(generic=generic_lm)
        fixed = tune(dev, {}, lms, budget=60, seed=5, fix_alpha=True)
        free = tune(dev, {}, lms, budget=60, seed=5,
                    extra_seeds=((fixed.config.alpha, fixed.config.beta),))
        assert free.wer <= fixed.wer

    def test_plateau_tie_breaks_toward_first_pass(self, generic_lm):
        # A dev set where every config gives the same WER: prefer alpha=1, beta=0.
        dev = [mk_list("u", "a b", [("a b", -1.0, 0.0)])]
        lms = DomainLms(generic=generic_lm)
        result = tune(dev, {}, lms, budget=60, seed=4)
        assert result.config.alpha == 1.0
        assert result.config.beta == 0.0

    def test_empty_dev_rejected(self, generic_lm):
        with pytest.raises(ValueError):
            tune([], {}, DomainLms(generic=generic_lm))

    def test_bad_bounds_rejected(self, generic_lm):
        dev = self.make_dev(generic_lm)
        with pytest.raises(ValueError):
            tune(dev, {}, DomainLms(generic=generic_lm), bounds=(2, -2, 0, 4))

    def test_budget_smaller_than_seeds_rejected(self, generic_lm):
        dev = self.make_dev(generic_lm)
        with pytest.raises(ValueError, match="budget"):
            tune(dev, {}, DomainLms(generic=generic_lm), budget=3)


class TestPluggableScorer:
    def test_any_logprob_scorer_plugs_in(self):
        class LengthPenalty:
            def nbest_logprob(self, sentences):
                return [-float(len(words)) for words in sentences]

        nb = mk_list("u", "a", [("one two three", -1.0, 0.0), ("one", -1.2, 0.0)])
        (out,) = rescore_corpus([nb], RescoreConfig(alpha=0.0, beta=1.0),
                                DomainLms(generic=LengthPenalty()))
        assert out.hyps[0].text == "one"


class TestCorpusRescore:
    def test_routes_per_utterance(self, lms):
        lists = [
            mk_list("contacts-1", "call ada", [("call ada", -2.0, 1.0),
                                               ("call otto", -1.0, 0.0)]),
            mk_list("general-1", "play some music",
                    [("play some music", -2.0, 0.0), ("play some musil", -1.0, 2.0)]),
        ]
        out = rescore_corpus(lists, RescoreConfig(alpha=0.2, beta=1.0), lms)
        assert out[0].hyps[0].text == "call ada"
        assert out[1].hyps[0].text == "play some music"


@pytest.fixture(scope="module")
def synth_dev():
    """A small decoded dev split of a synthetic task, with its rescoring models."""
    task = make_task(5, n_contacts=40, n_devices=5, n_apps=5, n_test=1, n_dev=15)
    oracle = SynthOracle(task.vocab, task.refs_dev, noise=0.3, seed=5,
                          noisy_words=task.noisy_words)
    biaser = SubwordBiaser(build_catalog_fst(task.all_bias_entries()))
    dev = decode_corpus(oracle, biaser, task.vocab, 2.5, beam_size=8, n_best=8)
    generic = train_kn_lm(task.generic_lm_corpus, order=3)
    contacts = train_kn_lm(task.contacts_lm_corpus, order=3)
    return task, dev, generic, contacts


class TestTuneMatchesRescore:
    """``tune`` scores a config exactly as ``rescore_corpus`` ranks with it and
    ``pool`` counts: same language model per utterance, same tie-break by
    first-pass rank, an empty reference counted as zero words."""

    @pytest.mark.parametrize("bound", [True, False], ids=["contacts", "generic-only"])
    def test_tuned_wer_is_the_rescored_wer(self, synth_dev, bound):
        task, dev, generic, contacts = synth_dev
        lms = (DomainLms(generic=generic, contacts=contacts,
                         catalog_words=task.contact_words)
               if bound else DomainLms(generic=generic))
        # Two hypotheses that tie wherever beta = 0: first-pass rank decides.
        # An empty reference adds errors but no reference words.
        dev = dev + [mk_list("contacts-tie", "call ada",
                             [("call adda", -1.0, 0.5), ("call ada", -1.0, 0.5)]),
                     mk_list("general-empty", "", [("play", -1.0, 0.0)])]

        def rescored_wer(config):
            return pool(
                wer(normalize_words(nb.ref), normalize_words(nb.hyps[0].text))
                for nb in rescore_corpus(dev, config, lms)
            ).wer

        result = tune(dev, {}, lms, budget=40, seed=2)
        assert result.wer == rescored_wer(result.config)
        for alpha, beta, w in result.evaluated:
            assert w == rescored_wer(RescoreConfig(alpha=alpha, beta=beta)), (alpha, beta)
