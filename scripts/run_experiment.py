#!/usr/bin/env python3
"""End-to-end biasing experiment on a generated task.

Decodes the test split under a grid of biasing configurations (word-level,
subword, subword-with-context), trains the rescoring models, tunes
(alpha, beta) with and without de-biasing on the dev split, and prints
first-pass and second-pass result tables.

    python3 scripts/run_experiment.py --seed 7 --quick
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from biaslattice import synthdata
from biaslattice.context import ContextualBiaser, build_class_fst
from biaslattice.decode import SubwordBiaser, SynthOracle, WordBiaser, decode_corpus
from biaslattice.fst import build_catalog_fst, empty_fst
from biaslattice.lm import train_kn_lm
from biaslattice.metrics import evaluate
from biaslattice.rescore import DomainLms, rescore_corpus, tune


def decode_split(task, refs, biaser, lam, *, noise, seed, beam, n_best=8):
    oracle = SynthOracle(
        task.vocab, refs, noise=noise, seed=seed, noisy_words=task.noisy_words
    )
    return decode_corpus(oracle, biaser, task.vocab, lam, beam, n_best)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--noise", type=float, default=0.3)
    ap.add_argument("--beam", type=int, default=8)
    ap.add_argument("--quick", action="store_true", help="smaller task for a fast run")
    args = ap.parse_args()

    t0 = time.time()
    if args.quick:
        task = synthdata.make_task(args.seed, n_contacts=120, n_devices=15,
                                   n_apps=15, n_test=40, n_dev=30)
    else:
        task = synthdata.make_task(args.seed)
    print(f"task: {len(task.contacts)} contacts, {len(task.devices)} devices, "
          f"{len(task.apps)} apps, {len(task.refs_test)} test utts "
          f"({time.time() - t0:.1f}s)")

    contacts_fst = build_catalog_fst(task.contacts)
    all_fst = build_catalog_fst(task.all_bias_entries())
    class_fst = build_class_fst(task.class_corpus, min_count=synthdata.CLASS_MIN_COUNT)
    ctx_contacts = ContextualBiaser(
        class_fst,
        {"@contactname": contacts_fst, "@devicename": empty_fst(), "@appname": empty_fst()},
    )
    ctx_one = ContextualBiaser(
        class_fst,
        {
            "@contactname": contacts_fst,
            "@devicename": build_catalog_fst(task.devices),
            "@appname": build_catalog_fst(task.apps),
        },
    )

    runs: dict[str, list] = {}

    def record(name, biaser, lam):
        t = time.time()
        lists = decode_split(task, task.refs_test, biaser, lam,
                             noise=args.noise, seed=args.seed, beam=args.beam)
        runs[name] = lists
        report = evaluate(lists)
        c, g = report.split("contacts"), report.split("general")
        print(f"{name:<22} contacts {100 * c.breakdown.wer:6.2f} "
              f"(oracle {100 * c.oracle.wer:6.2f})   "
              f"general {100 * g.breakdown.wer:6.2f} "
              f"(oracle {100 * g.oracle.wer:6.2f})   "
              f"[{time.time() - t:.1f}s]")

    print("\n-- first pass (contacts-only biasing catalog) --")
    record("baseline", None, 0.0)
    for lam in (1.0, 1.5, 2.0):
        record(f"word({lam})", WordBiaser(contacts_fst), lam)
    for lam in (1.0, 1.5, 2.0, 2.5):
        record(f"subwd({lam})", SubwordBiaser(contacts_fst), lam)
    for lam in (1.5, 2.5):
        record(f"ctxt-subwd({lam})", ctx_contacts, lam)

    print("\n-- first pass (three biasing catalogs) --")
    for lam in (2.5,):
        record(f"subwd3({lam})", SubwordBiaser(all_fst), lam)
        record(f"ctxt-subwd3({lam})", ctx_one, lam)

    print("\n-- second pass --")
    generic_lm = train_kn_lm(task.generic_lm_corpus, order=4)
    contacts_lm = train_kn_lm(task.contacts_lm_corpus, order=4)
    lms = DomainLms(generic=generic_lm, contacts=contacts_lm,
                    catalog_words=task.contact_words)

    dev_lists = decode_split(task, task.refs_dev, SubwordBiaser(all_fst), 2.5,
                             noise=args.noise, seed=args.seed + 1, beam=args.beam)
    t = time.time()
    fixed = tune(dev_lists, task.refs_dev, lms, budget=300, seed=1, fix_alpha=True)
    free = tune(dev_lists, task.refs_dev, lms, budget=300, seed=1,
                extra_seeds=((fixed.config.alpha, fixed.config.beta),))
    print(f"tuned fixed-alpha: alpha=1.0 beta={fixed.config.beta:.3f} "
          f"dev-wer {100 * fixed.wer:.2f}")
    print(f"tuned free-alpha : alpha={free.config.alpha:.3f} "
          f"beta={free.config.beta:.3f} dev-wer {100 * free.wer:.2f} "
          f"[{time.time() - t:.1f}s]")

    for name, cfg in (("2p-fixed", fixed.config), ("2p-free", free.config)):
        report = evaluate(rescore_corpus(runs["subwd3(2.5)"], cfg, lms))
        print(f"{name:<22} contacts {100 * report.split('contacts').breakdown.wer:6.2f}   "
              f"general {100 * report.split('general').breakdown.wer:6.2f}")

    print(f"\ntotal {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
