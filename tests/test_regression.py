"""Regression oracle: the seed-7 n-best files and tuned configs, pinned.

A refactor of the scoring layer must reproduce every hypothesis, score and
float formatting exactly, so each biaser kind's ``write_nbest`` output is
pinned by its sha256.  A refactor of the second pass must reproduce the
tuner's result, so the fixed- and free-alpha ``tune`` outputs on a decoded
dev split are pinned too.  If a change alters these on purpose, explain each
difference before updating a pin.
"""

import hashlib

import pytest

from biaslattice.context import ContextualBiaser, build_class_fst
from biaslattice.decode import (
    SubwordBiaser,
    WordBiaser,
    decode_corpus,
    synth_oracle,
    write_nbest,
)
from biaslattice.fst import build_catalog_fst
from biaslattice.lm import train_kn_lm
from biaslattice.rescore import DomainLms, tune
from biaslattice.synthdata import make_task

SEED = 7
N_TEST = 40  # 80 utterances: 40 contacts, 40 general
BEAM = 16
N_BEST = 8
LAM = 2.5

DIGESTS = {
    "none": "4a45412d069ecc54cc41565146159237e732a33363db817c57d456f2274b9f53",
    "word": "8d5d34c00862d730c352ba154b6c664f5010af7c2c77e0b9c127cf1235f21db4",
    "subword": "51f994c9d09116e0d097824483504024b58eaaa41964acc3c9722bcc2be49e71",
    "context": "c1421503e6a1f4a9165d1e1750ff0769aac130df4d7c8e4dabd2ca24206e4a03",
}


@pytest.fixture(scope="module")
def seed7():
    task = make_task(SEED, n_test=N_TEST)
    all_fst = build_catalog_fst(task.all_bias_entries())
    context = ContextualBiaser(
        build_class_fst(task.class_corpus, min_count=10),
        {
            "@contactname": build_catalog_fst(task.contacts),
            "@devicename": build_catalog_fst(task.devices),
            "@appname": build_catalog_fst(task.apps),
        },
    )
    biasers = {
        "none": None,
        "word": WordBiaser(all_fst),
        "subword": SubwordBiaser(all_fst),
        "context": context,
    }
    oracle = synth_oracle(
        task.vocab, task.refs_test, noise=0.3, seed=SEED, noisy_words=task.noisy_words
    )
    return task, oracle, biasers


@pytest.mark.parametrize("kind", sorted(DIGESTS))
def test_seed7_nbest_is_byte_identical(seed7, kind, tmp_path):
    task, oracle, biasers = seed7
    lists = decode_corpus(oracle, biasers[kind], task.vocab, LAM, BEAM, N_BEST)
    assert len(lists) == 2 * N_TEST
    path = tmp_path / f"{kind}.nbest"
    write_nbest(lists, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[kind]


# Subword biasing over a 10k-contact catalog: its start state holds about
# 10k arcs, so prefix searches run over long bands, not the short ones above.
LONG_BAND_DIGEST = "8984a20ec73d0394fc22861d42ad42a78f48e41f46b18be17d777a1b978291cf"


def test_seed7_long_band_subword_nbest_is_byte_identical(tmp_path):
    task = make_task(SEED, n_contacts=10_000, n_test=N_TEST)
    oracle = synth_oracle(
        task.vocab, task.refs_test, noise=0.3, seed=SEED, noisy_words=task.noisy_words
    )
    biaser = SubwordBiaser(build_catalog_fst(task.all_bias_entries()))
    lists = decode_corpus(oracle, biaser, task.vocab, LAM, BEAM, N_BEST)
    assert len(lists) == 2 * N_TEST
    path = tmp_path / "subword-long-band.nbest"
    write_nbest(lists, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LONG_BAND_DIGEST


# (alpha, beta, dev WER, evaluations) of the fixed- and free-alpha tunes.
TUNED = {
    "fixed": (1.0, 0.2908076546347872, 0.04926108374384237, 60),
    "free": (1.0, 0.2908076546347872, 0.04926108374384237, 60),
}


def test_seed7_tune_is_unchanged():
    task = make_task(SEED, n_dev=30)
    oracle = synth_oracle(
        task.vocab, task.refs_dev, noise=0.3, seed=SEED + 1, noisy_words=task.noisy_words
    )
    biaser = SubwordBiaser(build_catalog_fst(task.all_bias_entries()))
    dev = decode_corpus(oracle, biaser, task.vocab, LAM, beam_size=8, n_best=N_BEST)
    lms = DomainLms(
        generic=train_kn_lm(task.generic_lm_corpus, order=4),
        contacts=train_kn_lm(task.contacts_lm_corpus, order=4),
        catalog_words=task.contact_words,
    )
    fixed = tune(dev, task.refs_dev, lms, budget=60, seed=1, fix_alpha=True)
    free = tune(dev, task.refs_dev, lms, budget=60, seed=1,
                extra_seeds=((fixed.config.alpha, fixed.config.beta),))
    for name, r in (("fixed", fixed), ("free", free)):
        assert (r.config.alpha, r.config.beta, r.wer, len(r.evaluated)) == TUNED[name], name
