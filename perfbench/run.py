#!/usr/bin/env python3
"""Benchmark of biased decoding and the second pass, end to end and per layer.

Each workload runs in its own single-threaded process as a closed loop with
one client: the next call starts only when the previous one returned.

    python3 perfbench/run.py --workload seed-mix --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 11

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` proxies the
program's objects, records spans and reports the per-layer metrics.  A
human-readable report goes to standard output, followed by one JSON line
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, including metadata and n-best digests, is written to
``perfbench/results/``.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("seed-mix", "large-catalog", "second-pass")

LAM = 2.5
NOISE = 0.3
N_BEST = 8
# Test utterances per contacts/general split, three times the default: on
# 200 utterances the work per token and the tail latency move by 5-20%
# between seeds.  The default task's split is the first third.
N_TEST = 300
# Every operation runs once per pass, and its latency is the median of its
# repeats in drift-corrected seconds (see hostclock.py).
MIN_PASSES = 5
MIN_SAMPLES = 1100   # pooled p99 with at least ten samples beyond it
MIN_SETUPS = 3
MAX_SETUPS = 11
SETUP_BUDGET_S = 1.0


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; exit if it is missing."""
    src = ROOT / "src"
    if not (src / "biaslattice" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import biaslattice

    if Path(biaslattice.__file__).resolve().parent != src / "biaslattice":
        sys.exit(f"perfbench: imported biaslattice from {biaslattice.__file__}, not {src}")


import_program()

from biaslattice import synthdata  # noqa: E402
from biaslattice.context import ClassFst, ContextualBiaser, build_class_fst  # noqa: E402
from biaslattice.decode import (  # noqa: E402
    NullBiaser, SubwordBiaser, WordBiaser, beam_search, decode_corpus, synth_oracle,
)
from biaslattice.fst import build_catalog_fst, deserialize, serialize  # noqa: E402
from biaslattice.lm import load_lm, train_kn_lm, write_arpa, write_members  # noqa: E402
from biaslattice.lookahead import ProbeCounter, open_session  # noqa: E402
from biaslattice.rescore import DomainLms, rescore_corpus, tune  # noqa: E402
from biaslattice.wordpiece import segment  # noqa: E402

from checks import (  # noqa: E402
    check_nbest, check_rescored, check_tune, nbest_digest, split_wer_pct,
)
from hostclock import HostClock  # noqa: E402
from spans import BiaserProxy, OracleProxy, Proxy, Tracer  # noqa: E402


def spanned(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(tracer.name_id(name), fn, *args, **kwargs)


@dataclass
class Pass:
    """One sweep over a workload's operations.

    An operation key is a tuple whose first item is the operation's kind,
    e.g. ``("subword", utt_id)`` or ``("tune", "free")``.
    """

    clock: HostClock
    outputs: list = field(default_factory=list)   # (key, result or exception)
    # (key, measured seconds, drift-corrected seconds) of the ops that returned
    times: list = field(default_factory=list)

    def record(self, key, seconds: float, out) -> None:
        self.outputs.append((key, out))
        if not isinstance(out, Exception):
            self.times.append((key, seconds, self.clock.nominal(seconds)))

    def by_key(self) -> dict:
        """The first output of each operation."""
        first = {}
        for key, out in self.outputs:
            first.setdefault(key, out)
        return first


def timed(fn, *args, **kwargs):
    """(result or the exception raised, elapsed seconds)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        out = exc
    return out, time.perf_counter() - t0


def load_automaton(entries, tracer: Tracer | None):
    """Build, serialize and deserialize one catalog automaton."""
    fst = spanned(tracer, "fst.build", build_catalog_fst, entries)
    return roundtrip(fst, tracer)


def roundtrip(fst, tracer: Tracer | None):
    data = spanned(tracer, "fst.serialize", serialize, fst)
    loaded = spanned(tracer, "fst.deserialize", deserialize, data)
    if tracer is not None:
        tracer.counts["fst.bytes"] += len(data)
        tracer.counts["fst.states"] += loaded.num_states
        tracer.counts["fst.arcs"] += loaded.num_arcs
    return loaded


def reference_tokens(oracle, utt: str) -> int:
    return len(oracle.tokens[utt]) - 1  # without the end-of-sequence token


# -- workloads -------------------------------------------------------------------
#
# A workload generates its inputs in __init__ (never timed), builds the
# program state in setup() (timed as setup_s), and runs every operation once
# per run_pass().  tokens[utt] gives the reference subword tokens of each
# per-utterance operation; batch_kinds names the operations whose latencies
# add up to batch_s.


class DecodeWorkload:
    """Decodes every test utterance once with each biaser kind per pass."""

    name = ""
    beam = 16
    layers = {"none": "null", "word": "word_bias", "subword": "lookahead",
              "context": "context"}

    def __init__(self, task, seed: int):
        self.task = task
        self.seed = seed
        self.oracle = synth_oracle(
            task.vocab, task.refs_test, noise=NOISE, seed=seed, noisy_words=task.noisy_words
        )
        self.utts = sorted(self.oracle.utterances())
        self.tokens = {utt: reference_tokens(self.oracle, utt) for utt, _ in self.utts}
        self.batch_kinds = tuple(self.layers)

    def setup(self, tracer: Tracer | None = None) -> dict:
        raise NotImplementedError

    def run_pass(self, biasers: dict, clock: HostClock,
                 tracer: Tracer | None = None) -> Pass:
        oracle = self.oracle
        decode = beam_search
        if tracer is not None:
            biasers = {
                kind: BiaserProxy(NullBiaser() if b is None else b, tracer, self.layers[kind])
                for kind, b in biasers.items()
            }
            oracle = OracleProxy(oracle, tracer)
            decode = partial(tracer.call, tracer.name_id("decode.beam_search"), beam_search)
        p = Pass(clock)
        vocab = self.task.vocab
        for utt, ref in self.utts:
            max_steps = self.oracle.max_steps(utt)
            for kind, biaser in biasers.items():
                lam = 0.0 if kind == "none" else LAM
                if tracer is not None:
                    tracer.set_request(f"{self.name}/{kind}/{utt}")
                out, dt = timed(decode, oracle, biaser, vocab, lam, self.beam, N_BEST,
                                utt_id=utt, ref=ref, max_steps=max_steps)
                p.record((kind, utt), dt, out)
        return p

    def check(self, key, out) -> list[str]:
        kind = key[0]
        lam = 0.0 if kind == "none" else LAM
        weight = None if kind == "none" else self.task.catalog_weight
        return check_nbest(out, self.task.vocab, lam=lam, n_best=N_BEST, weight=weight)

    def summary(self, medians: dict) -> dict:
        tokens, seconds = defaultdict(int), defaultdict(float)
        for (kind, utt), s in medians.items():
            tokens[kind] += self.tokens[utt]
            seconds[kind] += s
        return {"kind_tokens_per_s": {kind: tokens[kind] / seconds[kind] for kind in seconds}}

    def report(self, p: Pass, workdir: Path) -> dict:
        outputs = p.by_key()
        per_kind = {}
        pooled = []
        for kind in self.layers:
            lists = [outputs[(kind, utt)] for utt, _ in self.utts]
            lists = [nb for nb in lists if not isinstance(nb, Exception)]
            pooled.extend(lists)
            wers = split_wer_pct(lists)
            per_kind[kind] = {
                "digest": nbest_digest(lists, workdir / f"{kind}.nbest"),
                "wer_contacts_pct": wers.get("contacts"),
                "wer_general_pct": wers.get("general"),
            }
        wers = split_wer_pct(pooled)
        return {
            "kinds": per_kind,
            "wer_contacts_pct": wers.get("contacts"),
            "wer_general_pct": wers.get("general"),
        }


class SeedMix(DecodeWorkload):
    """The paper's experiment: every biaser kind over the seed task."""

    name = "seed-mix"

    def __init__(self, seed: int):
        super().__init__(synthdata.make_task(seed, n_test=N_TEST), seed)

    def setup(self, tracer=None):
        task = self.task
        all_fst = load_automaton(task.all_bias_entries(), tracer)
        bindings = {
            "@contactname": load_automaton(task.contacts, tracer),
            "@devicename": load_automaton(task.devices, tracer),
            "@appname": load_automaton(task.apps, tracer),
        }
        class_fst = spanned(tracer, "fst.build", build_class_fst, task.class_corpus, 10)
        class_fst = ClassFst(roundtrip(class_fst.fst, tracer), class_fst.tags)
        return {
            "none": None,
            "word": WordBiaser(all_fst),
            "subword": SubwordBiaser(all_fst),
            "context": ContextualBiaser(class_fst, bindings),
        }


class LargeCatalog(DecodeWorkload):
    """Subword lookahead over a 100k-entry catalog."""

    name = "large-catalog"
    n_contacts = 100_000
    layers = {"subword": "lookahead"}

    def __init__(self, seed: int):
        super().__init__(
            synthdata.make_task(seed, n_contacts=self.n_contacts, n_test=N_TEST), seed)
        self.entries = self.task.all_bias_entries()

    def setup(self, tracer=None):
        return {"subword": SubwordBiaser(load_automaton(self.entries, tracer))}

    def probes(self, biasers: dict) -> dict[str, tuple[float, str]]:
        """Direct ``open_session``/``expand`` probes on 1k, 10k and 100k catalogs."""
        out = {}
        for label, n in (("1k", 1_000), ("10k", 10_000), ("100k", self.n_contacts)):
            if n == self.n_contacts:
                task, fst = self.task, biasers["subword"].fst
            else:
                task = synthdata.make_task(self.seed, n_contacts=n, n_test=N_TEST)
                fst = build_catalog_fst(task.all_bias_entries())
            words = probe_words(task)
            counter = ProbeCounter()
            steps = expand_sweep(fst, words, cache=None, counter=counter)
            out[f"lookahead.probes_per_step.{label}"] = (counter.probes / steps, "probe/step")
            out[f"lookahead.cold_expand_steps_per_s.{label}"] = (
                expand_rate(fst, words, cache=None), "1/s")
            if label == "100k":
                cache = {}
                expand_sweep(fst, words, cache=cache)
                out[f"lookahead.warm_expand_steps_per_s.{label}"] = (
                    expand_rate(fst, words, cache=cache), "1/s")
        return out


def probe_words(task) -> list[list[str]]:
    """Content pieces of every word of the test references, in utterance order."""
    d = task.vocab.delimiter
    words = []
    for _, ref in sorted(task.refs_test.items()):
        for word in ref.split():
            pieces = list(segment(task.vocab, word))
            if pieces[-1] == d:
                pieces.pop()
            elif pieces[-1].endswith(d):
                pieces[-1] = pieces[-1][: -len(d)]
            words.append(pieces)
    return words


def expand_sweep(fst, words, *, cache, counter=None) -> int:
    """Expand every word from the start state until it falls out; return steps."""
    steps = 0
    for pieces in words:
        session = open_session(fst, fst.start, cache=cache, counter=counter)
        for piece in pieces:
            session.expand(piece)
            steps += 1
            if session.dead:
                break
    return steps


def expand_rate(fst, words, *, cache, min_s: float = 0.3) -> float:
    """Expand steps per second over whole sweeps lasting at least ``min_s``."""
    steps = 0
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < min_s:
        steps += expand_sweep(fst, words, cache=cache)
    return steps / elapsed


class SecondPass:
    """Rescoring and (alpha, beta) tuning over first-pass subword n-best lists."""

    name = "second-pass"
    n_dev = 400   # 800 dev utterances: one tune takes about 0.7 s
    beam = 8
    budget = 300
    rescore_sweeps = 4   # rescoring the test split once takes only about 40 ms
    batch_kinds = ("tune",)

    def __init__(self, seed: int):
        self.seed = seed
        task = self.task = synthdata.make_task(seed, n_dev=self.n_dev, n_test=N_TEST)
        biaser = SubwordBiaser(build_catalog_fst(task.all_bias_entries()))

        def decode(refs, oracle_seed):
            oracle = synth_oracle(task.vocab, refs, noise=NOISE, seed=oracle_seed,
                                  noisy_words=task.noisy_words)
            return oracle, decode_corpus(oracle, biaser, task.vocab, LAM, self.beam, N_BEST)

        _, self.dev = decode(task.refs_dev, seed + 1)
        oracle, self.test = decode(task.refs_test, seed)
        self.tokens = {nb.utt_id: reference_tokens(oracle, nb.utt_id) for nb in self.test}
        self.lms: DomainLms | None = None
        self.config = None

    def setup(self, tracer=None) -> DomainLms:
        task = self.task
        generic = spanned(tracer, "lm.train", train_kn_lm, task.generic_lm_corpus, 4)
        contacts = spanned(tracer, "lm.train", train_kn_lm, task.contacts_lm_corpus, 4)
        RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            g, c, m = (os.path.join(tmp, f) for f in ("generic.arpa", "contacts.arpa",
                                                       "contacts.members"))
            spanned(tracer, "lm.write", write_arpa, generic, g)
            spanned(tracer, "lm.write", write_arpa, contacts, c)
            spanned(tracer, "lm.write", write_members, contacts, m)
            generic = spanned(tracer, "lm.read", load_lm, g)
            contacts = spanned(tracer, "lm.read", load_lm, c, m)
        self.lms = DomainLms(generic=generic, contacts=contacts,
                             catalog_words=task.contact_words)
        return self.lms

    def run_pass(self, lms: DomainLms, clock: HostClock,
                 tracer: Tracer | None = None) -> Pass:
        tune_fn, rescore_fn = tune, rescore_corpus
        if tracer is not None:
            lms = DomainLms(generic=Proxy(lms.generic, tracer, "lm.logprob"),
                            contacts=Proxy(lms.contacts, tracer, "lm.logprob"),
                            catalog_words=lms.catalog_words)
            tune_fn = partial(tracer.call, tracer.name_id("rescore.tune"), tune)
            rescore_fn = partial(tracer.call, tracer.name_id("rescore.rescore"), rescore_corpus)
            tracer.set_request(f"{self.name}/tune/dev")
        p = Pass(clock)
        refs = self.task.refs_dev
        fixed, dt = timed(tune_fn, self.dev, refs, lms, budget=self.budget, seed=1,
                          fix_alpha=True)
        p.record(("tune", "fixed"), dt, fixed)
        seeds = () if isinstance(fixed, Exception) else (
            (fixed.config.alpha, fixed.config.beta),)
        free, dt = timed(tune_fn, self.dev, refs, lms, budget=self.budget, seed=1,
                         extra_seeds=seeds)
        p.record(("tune", "free"), dt, free)
        if self.config is None and not isinstance(free, Exception):
            self.config = free.config
        for _ in range(self.rescore_sweeps):
            for nb in self.test:
                if tracer is not None:
                    tracer.set_request(f"{self.name}/rescore/{nb.utt_id}")
                out, dt = timed(rescore_fn, [nb], self.config, lms)
                p.record(("rescore", nb.utt_id), dt,
                         out if isinstance(out, Exception) else out[0])
        return p

    def check(self, key, out) -> list[str]:
        if key[0] == "tune":
            return check_tune(out, budget=self.budget, fix_alpha=key[1] == "fixed")
        before = next(nb for nb in self.test if nb.utt_id == key[1])
        return check_rescored(before, out, self.config, self.lms)

    def summary(self, medians: dict) -> dict:
        rescore = [s for (kind, _), s in medians.items() if kind == "rescore"]
        return {
            "rescore_utt_per_s": len(rescore) / sum(rescore),
            "tune_s": sum(s for (kind, _), s in medians.items() if kind == "tune"),
        }

    def report(self, p: Pass, workdir: Path) -> dict:
        outputs = p.by_key()
        rescored = [outputs[("rescore", nb.utt_id)] for nb in self.test]
        rescored = [nb for nb in rescored if not isinstance(nb, Exception)]
        wers = split_wer_pct(rescored)
        tuned = {
            name: None if isinstance(r, Exception) else {
                "alpha": r.config.alpha, "beta": r.config.beta, "dev_wer_pct": 100 * r.wer}
            for name, r in (("fixed", outputs[("tune", "fixed")]),
                            ("free", outputs[("tune", "free")]))
        }
        first = split_wer_pct(self.test)
        return {
            "kinds": {
                "first-pass": {"digest": nbest_digest(self.test, workdir / "test.nbest"),
                               "wer_contacts_pct": first.get("contacts"),
                               "wer_general_pct": first.get("general")},
                "rescored": {"digest": nbest_digest(rescored, workdir / "rescored.nbest"),
                             "wer_contacts_pct": wers.get("contacts"),
                             "wer_general_pct": wers.get("general")},
            },
            "tuned": tuned,
            "wer_contacts_pct": wers.get("contacts"),
            "wer_general_pct": wers.get("general"),
            "tuned_dev_wer_pct": tuned["free"] and tuned["free"]["dev_wer_pct"],
        }


WORKLOADS = {"seed-mix": SeedMix, "large-catalog": LargeCatalog, "second-pass": SecondPass}


# -- measurement -----------------------------------------------------------------


class Ledger:
    """Attempted and failed operations, judged against the first output.

    The first output of each operation must pass the workload's checks; every
    later output of the same operation must equal it exactly.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, p: Pass) -> None:
        for key, out in p.outputs:
            self.attempted += 1
            if isinstance(out, Exception):
                problems = [f"{key}: raised {out!r}"]
            elif key not in self.reference:
                try:
                    problems = self.workload.check(key, out)
                except Exception as exc:  # a malformed output fails its check
                    problems = [f"{key}: check raised {exc!r}"]
                self.reference[key] = out
            elif out != self.reference[key]:
                problems = [f"{key}: output differs from its first run"]
            else:
                problems = []
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def run_passes(workload, state, clock: HostClock, ledger: Ledger, seconds: float,
               min_passes: int = MIN_PASSES) -> list[Pass]:
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while (time.perf_counter() - t0 < seconds or len(passes) < min_passes
           or len(utterance_samples(workload, passes)) < MIN_SAMPLES):
        gc.collect()
        p = workload.run_pass(state, clock)
        ledger.judge(p)
        if passes:
            p.outputs = []  # judged; only the first pass's outputs are reported
        passes.append(p)
    return passes


def utterance_samples(workload, passes: list[Pass], *, corrected: bool = True) -> list[float]:
    """Seconds of every per-utterance operation of every pass."""
    return [nominal if corrected else measured
            for p in passes for (_, utt), measured, nominal in p.times
            if utt in workload.tokens]


def op_medians(passes: list[Pass], *, corrected: bool = True) -> dict:
    """Each operation's median latency over its repeats."""
    samples = defaultdict(list)
    for p in passes:
        for key, measured, nominal in p.times:
            samples[key].append(nominal if corrected else measured)
    return {key: statistics.median(v) for key, v in samples.items()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def latency(workload, medians: dict) -> tuple[float, list[float]]:
    """(reference tokens per second, per-utterance latencies) from op medians."""
    utt = {key: s for key, s in medians.items() if key[1] in workload.tokens}
    tokens = sum(workload.tokens[u] for _, u in utt)
    return tokens / sum(utt.values()), list(utt.values())


def end_to_end(workload, seconds: float, ledger: Ledger):
    clock = HostClock()
    setup_s = []
    measured_setup_s = []
    state = None
    while len(setup_s) < MIN_SETUPS or (
        sum(measured_setup_s) < SETUP_BUDGET_S and len(setup_s) < MAX_SETUPS
    ):
        state = None  # drop the previous set-up before building the next
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        measured_setup_s.append(time.perf_counter() - t0)
        setup_s.append(clock.nominal(measured_setup_s[-1]))
    passes = run_passes(workload, state, clock, ledger, seconds)
    medians = op_medians(passes)
    tokens_per_s, utt_s = latency(workload, medians)
    raw_tokens_per_s, raw_utt_s = latency(workload, op_medians(passes, corrected=False))
    pooled = utterance_samples(workload, passes)
    measured_pooled = utterance_samples(workload, passes, corrected=False)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "tokens_per_s": (tokens_per_s, "1/s"),
        "utt_ms_p50": (1000 * statistics.median(utt_s), "ms"),
        "utt_ms_p99": (1000 * percentile(pooled, 99), "ms"),
        "batch_s": (sum(s for key, s in medians.items() if key[0] in workload.batch_kinds),
                    "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = {"setup_s": len(setup_s), "tokens_per_s": len(pooled),
              "utt_ms_p50": len(utt_s), "utt_ms_p99": len(pooled),
              "batch_s": len(passes)}
    info = {
        "passes": len(passes),
        "host_speed": clock.speed(),
        "measured.setup_s": statistics.median(measured_setup_s),
        "measured.tokens_per_s": raw_tokens_per_s,
        "measured.utt_ms_p50": 1000 * statistics.median(raw_utt_s),
        "measured.utt_ms_p99": 1000 * percentile(measured_pooled, 99),
    }
    info.update(workload.summary(medians))
    return metrics, counts, passes[0], info


def per_layer(workload, seconds: float, ledger: Ledger):
    tracer = Tracer()
    clock = HostClock()
    state = workload.setup(tracer)
    untraced = run_passes(workload, state, clock, ledger, seconds / 2, min_passes=2)
    gc.collect()
    traced = workload.run_pass(state, clock, tracer)
    ledger.judge(traced)
    totals = tracer.totals()

    def span(name):
        return totals.get(name, (0, 0.0, 0.0))

    counts = tracer.counts
    oracle, decode = span("decode.oracle"), span("decode.beam_search")
    candidates = counts["decode.candidates"]
    metrics = {
        "decode.oracle_s": (oracle[1], "s"),
        "decode.oracle_calls": (oracle[0], "count"),
        "decode.self_s": (decode[2], "s"),
        "decode.candidates": (candidates, "count"),
        # Every kept beam is scored at the next step; each decode's first
        # oracle call scores the empty prefix, which no candidate produced.
        "decode.kept_ratio": ((oracle[0] - decode[0]) / candidates if candidates else 0.0,
                              "ratio"),
        "decode.word_bias_clone_s": (span("word_bias.clone")[1], "s"),
        "decode.word_bias_step_s": (span("word_bias.step")[1], "s"),
    }
    for layer in ("lookahead", "context"):
        metrics[f"{layer}.clones"] = (span(f"{layer}.clone")[0], "count")
        metrics[f"{layer}.clone_s"] = (span(f"{layer}.clone")[1], "s")
        metrics[f"{layer}.steps"] = (span(f"{layer}.step")[0], "count")
        metrics[f"{layer}.step_s"] = (span(f"{layer}.step")[1], "s")
    probes = workload.probes(state) if isinstance(workload, LargeCatalog) else {}
    for label in ("1k", "10k", "100k"):
        for name, unit in ((f"lookahead.cold_expand_steps_per_s.{label}", "1/s"),
                           (f"lookahead.probes_per_step.{label}", "probe/step")):
            metrics[name] = probes.get(name, (0.0, unit))
    name = "lookahead.warm_expand_steps_per_s.100k"
    metrics[name] = probes.get(name, (0.0, "1/s"))
    for part in ("build", "serialize", "deserialize"):
        metrics[f"fst.{part}_s"] = (span(f"fst.{part}")[1], "s")
    metrics["fst.bytes"] = (counts["fst.bytes"], "B")
    metrics["fst.states"] = (counts["fst.states"], "count")
    metrics["fst.arcs"] = (counts["fst.arcs"], "count")
    for part in ("train", "write", "read"):
        metrics[f"lm.{part}_s"] = (span(f"lm.{part}")[1], "s")
    metrics["lm.logprob_calls"] = (span("lm.logprob")[0], "count")
    metrics["lm.logprob_s"] = (span("lm.logprob")[1], "s")
    tune_span = span("rescore.tune")
    evals = sum(len(out.evaluated) for key, out in traced.outputs
                if key[0] == "tune" and not isinstance(out, Exception))
    metrics["rescore.rescore_self_s"] = (span("rescore.rescore")[2], "s")
    metrics["rescore.tune_self_s"] = (tune_span[2], "s")
    metrics["rescore.tune_evals"] = (evals, "count")
    metrics["rescore.evals_per_s"] = (evals / tune_span[1] if tune_span[1] else 0.0, "1/s")
    untraced_rate = latency(workload, op_medians(untraced))[0]
    traced_rate = latency(workload, op_medians([traced]))[0]
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{workload.name}-seed{workload.seed}.tsv.gz"
    tracer.write(spans_path)
    info = {"spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT)),
            "untraced_tokens_per_s": untraced_rate, "traced_tokens_per_s": traced_rate,
            "host_speed": clock.speed()}
    counts = {"untraced_passes": len(untraced), "traced_passes": 1}
    return metrics, counts, traced, info


# -- reporting -------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(args) -> int:
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    input_s = time.perf_counter() - started
    ledger = Ledger(workload)
    measure = per_layer if args.trace else end_to_end
    metrics, counts, first, info = measure(workload, args.seconds, ledger)
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        outputs = workload.report(first, Path(tmp))
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "git_commit": git_commit(),
        "input_generation_s": input_s, "wall_s": time.perf_counter() - started,
        "sample_counts": counts,
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, meta=meta, info=info, outputs=outputs, problems=ledger.problems[:50])
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {meta['python']}  cpus {meta['cpu_count']}  commit {meta['git_commit'][:12]}")
    for name, (value, unit) in metrics.items():
        n = counts.get(name)
        print(f"{name:<44} {fmt(value):>14} {unit}" + (f"   (n={n})" if n else ""))
    for key, value in info.items():
        for sub, v in value.items() if isinstance(value, dict) else [("", value)]:
            print(f"{key + ('.' + sub if sub else ''):<44} {fmt(v):>14}")
    for key in ("wer_contacts_pct", "wer_general_pct", "tuned_dev_wer_pct"):
        if key in outputs:
            print(f"{key:<44} {fmt(outputs[key]):>14} %")
    for kind, row in outputs["kinds"].items():
        print(f"  {kind:<12} digest {row['digest'][:16]}  "
              f"wer contacts {fmt(row['wer_contacts_pct'])} % general "
              f"{fmt(row['wer_general_pct'])} %")
    print(f"ops attempted {ledger.attempted}  failed {ledger.failed}  -> {path.relative_to(ROOT)}")
    for problem in ledger.problems[:10]:
        print(f"  FAILED {problem}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
