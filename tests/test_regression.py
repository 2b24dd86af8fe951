"""Regression oracle: the seed-7 n-best files, pinned byte for byte.

A refactor of the scoring layer must reproduce every hypothesis, score and
float formatting exactly, so each biaser kind's ``write_nbest`` output is
pinned by its sha256.  If a change alters these on purpose, explain each
difference before updating a digest.
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
