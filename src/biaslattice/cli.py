"""Command-line driver: build-fst | decode | rescore | tune | eval | train-lm.

Exit codes: 0 on success, 2 on input-format errors and invalid flag values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import context, decode, fst, lm, metrics, rescore, wordpiece
from .errors import InputFormatError, open_text


def _number(kind, ok: str, test):
    """An argparse ``type=`` that parses ``kind`` and rejects values failing ``test``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a valid {kind.__name__}: {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {ok}, got {text!r}")
        return value

    return parse


_positive_int = _number(int, ">= 1", lambda v: v >= 1)
_finite = _number(float, "finite", math.isfinite)
_non_negative = _number(float, "finite and >= 0", lambda v: 0 <= v < math.inf)
_probability = _number(float, "in [0, 1]", lambda v: 0 <= v <= 1)


def _cmd_build_fst(args) -> int:
    if bool(args.catalog) == bool(args.class_corpus):
        raise InputFormatError("build-fst needs exactly one of --catalog / --class-corpus")
    if args.catalog:
        entries = fst.load_catalog(args.catalog)
        automaton = fst.build_catalog_fst(entries)
        print(f"built catalog automaton: {len(entries)} phrases, "
              f"{automaton.num_states} states, {automaton.num_arcs} arcs")
    else:
        with open_text(args.class_corpus) as f:
            cfst = context.build_class_fst(f, args.min_count, source=args.class_corpus)
        automaton = cfst.fst
        print(f"built class automaton: tags {sorted(cfst.tags)}, "
              f"{automaton.num_states} states, {automaton.num_arcs} arcs")
    fst.save_fst(automaton, args.out)
    return 0


def _refuse_delimiter(delimiter: str, sources) -> None:
    """Refuse a word holding the vocabulary's delimiter, which no token
    sequence can spell; ``sources`` pairs each ``where`` with its words."""
    for where, words in sources:
        for word in words:
            if delimiter in word:
                raise InputFormatError(
                    f"{where}: word {word!r} contains the subword delimiter {delimiter!r}")


def _load_biaser(args, vocab, entries):
    if args.bindings and not args.class_fst:
        raise InputFormatError(f"--bindings {args.bindings} requires --class-fst")
    if args.class_fst:
        if not args.bindings:
            raise InputFormatError("--class-fst requires --bindings")
        if args.word_level:
            raise InputFormatError(f"--word-level has no effect with --class-fst {args.class_fst}")
        cfst = context.load_class_fst(args.class_fst)
        bindings = context.load_bindings(args.bindings, cfst)
        _refuse_delimiter(vocab.delimiter, [
            (args.class_fst, (w for w in cfst.fst.arc_words if w not in cfst.tags)),
            *((f"{args.bindings}: {tag} automaton", a.arc_words)
              for tag, a in sorted(bindings.items())),
        ])
        return context.ContextualBiaser(cfst, bindings)
    if entries is None:
        return None
    _refuse_delimiter(vocab.delimiter, ((e.where, e.phrase) for e in entries))
    automaton = fst.build_catalog_fst(entries)
    if args.word_level:
        return decode.WordBiaser(automaton)
    return decode.SubwordBiaser(automaton)


def _cmd_decode(args) -> int:
    if args.nbest > args.beam:
        raise InputFormatError(f"--nbest {args.nbest} exceeds --beam {args.beam}")
    vocab = wordpiece.load_vocab(args.vocab)
    refs = metrics.read_refs(args.refs)
    entries = fst.load_catalog(args.catalog) if args.catalog else None
    noisy = None
    if entries is not None:
        noisy = frozenset(w for e in entries for w in e.phrase)
    try:
        oracle = decode.SynthOracle(
            vocab, refs, noise=args.noise, seed=args.oracle_seed, noisy_words=noisy
        )
    except wordpiece.SegmentationError as exc:
        raise InputFormatError(f"{args.refs}: {exc} with the pieces of {args.vocab}") from None
    biaser = _load_biaser(args, vocab, entries)
    # A biasing score sums arc weights: one per word completed and not paid
    # back, plus the share pushed for the word in progress.  A word takes at
    # least one token, so a hypothesis of at most `steps` tokens scores within
    # (steps + 1) * W of zero, W the largest |weight| that can score.  An
    # increment is the difference of two scores and fusion scales a score by
    # lambda: all stay finite if 2 * max(lambda, 1) * (steps + 1) * W is.
    # Contextual decode scores with the bound automata, not the catalog.
    steps = max(map(oracle.max_steps, oracle.refs), default=0)
    tops = []
    if args.class_fst:
        tops = [(f"{args.bindings}: {tag} automaton weight", max(map(abs, a.weights), default=0.0))
                for tag, a in sorted(biaser.bindings.items())]
    elif entries is not None:
        tops = [(f"{args.catalog}: catalog weight", max(abs(e.weight) for e in entries))]
    for where, top in tops:
        if not math.isfinite(2 * max(args.lam, 1.0) * (steps + 1) * top):
            raise InputFormatError(f"{where} {top:g} could overflow "
                                   f"{steps}-token hypothesis scores at --lambda {args.lam:g}")
    lists = decode.decode_corpus(
        oracle, biaser, vocab, args.lam, beam_size=args.beam, n_best=args.nbest
    )
    decode.write_nbest(lists, args.out)
    print(f"decoded {len(lists)} utterances -> {args.out}")
    return 0


def _load_domain_lms(args) -> rescore.DomainLms:
    # The catalog's words route lists to the contacts model: neither works alone.
    if args.lm_contacts and not args.catalog:
        raise InputFormatError(f"--lm-contacts {args.lm_contacts} requires --catalog")
    for flag, path in (("--catalog", args.catalog), ("--lm-members", args.lm_members)):
        if path and not args.lm_contacts:
            raise InputFormatError(f"{flag} {path} requires --lm-contacts")
    generic = lm.load_lm(args.lm_generic)
    if not args.lm_contacts:
        return rescore.DomainLms(generic=generic)
    contacts = lm.load_lm(args.lm_contacts, args.lm_members)
    catalog_words = frozenset(w for e in fst.load_catalog(args.catalog) for w in e.phrase)
    return rescore.DomainLms(generic=generic, contacts=contacts, catalog_words=catalog_words)


def _read_refs(path, lists, nbest_path):
    """The references in ``path``, which must cover every list of ``nbest_path``."""
    refs = metrics.read_refs(path)
    for nb in lists:
        if nb.utt_id not in refs:
            raise InputFormatError(f"{path}: no reference for utterance {nb.utt_id!r} "
                                   f"of {nbest_path}")
    return refs


def _read_baseline(path, lists, nbest_path):
    """The n-best run in ``path``, which must hold the utterance ids of ``nbest_path``
    and no others."""
    baseline = decode.read_nbest(path)
    ids, base_ids = {nb.utt_id for nb in lists}, {nb.utt_id for nb in baseline}
    for nb in lists:
        if nb.utt_id not in base_ids:
            raise InputFormatError(f"{path}: no utterance {nb.utt_id!r} of {nbest_path}")
    for nb in baseline:
        if nb.utt_id not in ids:
            raise InputFormatError(f"{path}: utterance {nb.utt_id!r} is not in {nbest_path}")
    return baseline


def _cmd_rescore(args) -> int:
    lists = decode.read_nbest(args.nbest)
    lms = _load_domain_lms(args)
    config = rescore.RescoreConfig(alpha=args.alpha, beta=args.beta)
    out = rescore.rescore_corpus(lists, config, lms)
    decode.write_nbest(out, args.out)
    print(f"rescored {len(out)} utterances with alpha={args.alpha} beta={args.beta}")
    return 0


def _cmd_tune(args) -> int:
    try:
        a_lo, a_hi, b_lo, b_hi = bounds = tuple(float(x) for x in args.bounds.split(","))
    except ValueError:
        raise InputFormatError(f"--bounds must be 'a0,a1,b0,b1', got {args.bounds!r}") from None
    if not (all(map(math.isfinite, bounds)) and a_lo <= a_hi and b_lo <= b_hi):
        raise InputFormatError(
            f"--bounds must be finite with a0 <= a1 and b0 <= b1, got {args.bounds!r}"
        )
    seeds = len(rescore.seed_points(bounds, args.fix_alpha))
    if args.budget < seeds:
        raise InputFormatError(f"--budget must be >= {seeds}, the seed grid, got {args.budget}")
    dev = decode.read_nbest(args.dev)
    if args.refs:
        refs = _read_refs(args.refs, dev, args.dev)
    else:
        refs = {nb.utt_id: nb.ref for nb in dev}
    lms = _load_domain_lms(args)
    result = rescore.tune(
        dev, refs, lms,
        bounds=bounds,
        budget=args.budget,
        seed=args.seed,
        fix_alpha=args.fix_alpha,
    )
    payload = {
        "alpha": result.config.alpha,
        "beta": result.config.beta,
        "dev_wer": result.wer,
        "evaluations": len(result.evaluated),
    }
    print(json.dumps(payload))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(payload, f)
            f.write("\n")
    return 0


def _cmd_eval(args) -> int:
    lists = decode.read_nbest(args.nbest)
    refs = _read_refs(args.refs, lists, args.nbest) if args.refs else None
    baseline = _read_baseline(args.baseline, lists, args.nbest) if args.baseline else None
    report = metrics.evaluate(lists, refs, baseline=baseline)
    print(metrics.format_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(metrics.report_to_json(report), f, indent=2)
            f.write("\n")
    return 0


def _cmd_train_lm(args) -> int:
    with open_text(args.corpus) as f:
        model = lm.train_kn_lm(f, order=args.order, source=args.corpus)
    lm.write_arpa(model, args.out)
    if args.members:
        lm.write_members(model, args.members)
    print(f"trained order-{args.order} model: {len(model.vocab)} tokens, "
          f"{len(model.logprobs)} grams -> {args.out}")
    return 0


def _add_lm_flags(p) -> None:
    """The rescoring models' flags, which rescore and tune share."""
    p.add_argument("--lm-generic", required=True, help="generic back-off model file")
    p.add_argument("--lm-contacts", help="contacts back-off model file; requires --catalog")
    p.add_argument("--lm-members", help="class members sidecar for --lm-contacts")
    p.add_argument("--catalog", help="catalog whose words route to the contacts model")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaslattice",
        description="Personalized-phrase biasing toolkit: biasing automata, "
        "subword-level shallow fusion decoding, and second-pass rescoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-fst", help="compile a catalog or class corpus into an automaton")
    p.add_argument("--catalog", help="catalog file: 'phrase<TAB>weight' per line")
    p.add_argument("--class-corpus", help="annotated corpus with @tag(...) spans")
    p.add_argument("--min-count", type=_positive_int, default=10,
                   help="template count threshold for --class-corpus")
    p.add_argument("--out", required=True, help="output automaton path")
    p.set_defaults(func=_cmd_build_fst)

    p = sub.add_parser("decode", help="beam-decode a synthetic task with shallow fusion")
    p.add_argument("--vocab", required=True, help="wordpiece vocabulary file")
    p.add_argument("--catalog", help="biasing catalog file (also marks confusable words)")
    p.add_argument("--class-fst", help="serialized class-template automaton")
    p.add_argument("--bindings", help="manifest binding '@tag<TAB>automaton-path'")
    p.add_argument("--refs", required=True, help="references: 'id<TAB>transcript'")
    p.add_argument("--lambda", dest="lam", type=_non_negative, default=0.0,
                   help="shallow-fusion scale")
    p.add_argument("--beam", type=_positive_int, default=16)
    p.add_argument("--nbest", type=_positive_int, default=8)
    p.add_argument("--noise", type=_probability, default=0.3, help="oracle confusion level")
    p.add_argument("--oracle-seed", type=int, default=0)
    p.add_argument("--word-level", action="store_true",
                   help="apply biasing at word boundaries only")
    p.add_argument("--out", required=True, help="output n-best file (JSON lines)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("rescore", help="second-pass rescoring of an n-best file")
    p.add_argument("--nbest", required=True)
    _add_lm_flags(p)
    p.add_argument("--alpha", type=_finite, default=1.0)
    p.add_argument("--beta", type=_finite, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rescore)

    p = sub.add_parser("tune", help="optimize (alpha, beta) on a dev n-best file")
    p.add_argument("--dev", required=True, help="dev n-best file")
    p.add_argument("--refs", help="references; defaults to transcripts in the dev file")
    _add_lm_flags(p)
    p.add_argument("--bounds", default="-2,4,0,4", help="alpha/beta box: a0,a1,b0,b1")
    p.add_argument("--budget", type=_positive_int, default=400, help="objective evaluations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fix-alpha", action="store_true",
                   help="pin alpha at 1 (tune beta only)")
    p.add_argument("--out", help="write the tuned config as JSON")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("eval", help="WER/oracle-WER report for an n-best file")
    p.add_argument("--nbest", required=True)
    p.add_argument("--refs", help="references; defaults to transcripts in the file")
    p.add_argument("--baseline", help="baseline n-best file for relative change")
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("train-lm", help="train a Kneser-Ney back-off model")
    p.add_argument("--corpus", required=True, help="text corpus, @tag(...) spans allowed")
    p.add_argument("--order", type=_positive_int, default=4)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--members", help="also write the class members sidecar")
    p.set_defaults(func=_cmd_train_lm)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
