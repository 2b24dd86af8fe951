#!/usr/bin/env python3
"""Step-by-step trace of subword lookahead scoring on a tiny catalog.

Shows how the word-level weights of {play, player, playground} are paid out
while the token stream ``pl ay er_`` is consumed, and how a failed prefix
pays everything back.

    python3 scripts/trace_walkthrough.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from biaslattice.fst import CatalogEntry, build_catalog_fst
from biaslattice.lookahead import PhraseWalk
from biaslattice.wordpiece import make_vocab, word_end

# The pieces of the token streams below, over single letters.
VOCAB = make_vocab(
    set("abcdefghijklmnopqrstuvwxyz") | {"pl", "ay", "er", "play", "gr", "ou", "nd", "az"}
)


def show(title, tokens, weight=-8.0):
    fst = build_catalog_fst(
        [CatalogEntry((w,), weight) for w in ("play", "player", "playground")]
    )
    walk = PhraseWalk(fst)
    *pieces, last = tokens
    content = word_end(VOCAB, last)
    if content:
        pieces.append(content)
    # Fold the walk's transitions over the word: one row per expand step, and
    # a closing row unless the word died first (then it scores nothing more).
    state = walk.initial()
    rows = []  # (state, increment, closing, matched arc id)
    for piece in pieces:
        if state[5]:
            break
        increment, state = walk.expand(state, piece)
        rows.append((state, increment, False, None))
    arc = None
    if not state[5]:
        increment, arc, state = walk.close_word(state, "")
        rows.append((state, increment, True, arc))

    print(f"\n{title}")
    print(f"  tokens: {' '.join(tokens)}")
    header = f"  {'prefix':<12}{'band':>6}{'len':>5}{'longest':>9}{'ahead':>7}{'pushed':>8}{'incr':>8}"
    print(header)
    for (_, prefix, lo, hi, pushed, dead, *_), increment, closing, matched in rows:
        longest = lookahead = None
        if closing:
            lookahead = None if matched is None else fst.weights[matched]
        elif not dead:
            longest, lookahead = fst.band_summary(lo, hi)
        print(
            f"  {prefix:<12}{hi - lo:>6}{len(prefix):>5}"
            f"{longest or '-':>9}"
            f"{lookahead if lookahead is not None else '-':>7}"
            f"{'-' if dead else pushed:>8}"
            f"{increment:>8.3g}"
        )
    reached = None if arc is None else fst.next_state(arc)
    print(f"  word state reached: {reached}   total: {sum(row[1] for row in rows):g}")


def main():
    show("completing a catalog word trues up to its arc weight", ["pl", "ay", "er_"])
    show("a full-length match settles exactly", ["play", "gr", "ou", "nd", "_"])
    show("an abandoned prefix is paid back to zero", ["pl", "az", "a_"])


if __name__ == "__main__":
    main()
