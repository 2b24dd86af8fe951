import random

import pytest

from biaslattice.fst import CatalogEntry, build_catalog_fst
from biaslattice.wordpiece import make_vocab

PLAY_CATALOG = [
    CatalogEntry(("play",), -8.0),
    CatalogEntry(("player",), -8.0),
    CatalogEntry(("playground",), -8.0),
]

# A back-off model that loads but whose word probabilities underflow: after
# <s>, "a" pays the 10^-300 back-off on top of its 10^-98 unigram, which a
# linear-domain mix rounds to probability 0.
UNDERFLOW_ARPA = (
    "\\data\\\nngram 1=4\nngram 2=1\n\n"
    "\\1-grams:\n-98\ta\n-98\t<unk>\n-1\t</s>\n-99\t<s>\t-300\n\n"
    "\\2-grams:\n-1\t<s> </s>\n\n\\end\\\n"
)

# Back-off models the reader refuses: (text, line it names, message part).
_UNIGRAMS = "\\1-grams:\n-1\t</s>\n-1\t<unk>\n-1\ta\t-0.5\n\n"
BAD_ARPA = {
    "section-above-the-order": (
        "\\data\\\nngram 1=3\nngram 2=1\n\n" + _UNIGRAMS
        + "\\2-grams:\n-0.2\ta a\n\n\\3-grams:\n-0.01\ta a a\n\n\\end\\\n",
        13, "3-grams section, but no 'ngram 3=<count>'"),
    "zero-grams-section": (
        "\\data\\\nngram 1=3\n\n\\0-grams:\n-1\n\n" + _UNIGRAMS + "\\end\\\n",
        4, "0-grams section, but no 'ngram 0=<count>'"),
    "no-declaration": (
        "\\data\\\n\n" + _UNIGRAMS + "\\end\\\n",
        3, "1-grams section, but no 'ngram 1=<count>'"),
    "count-differs": (
        "\\data\\\nngram 1=30\n\n" + _UNIGRAMS + "\\end\\\n",
        2, "ngram 1=30 declared, 3 read"),
    "gram-listed-twice": (
        "\\data\\\nngram 1=4\n\n" + _UNIGRAMS[:-1] + "-2\ta\n\n\\end\\\n",
        8, "1-gram 'a' listed twice"),
    "fields-after-the-back-off": (
        "\\data\\\nngram 1=3\n\n" + _UNIGRAMS.replace("-1\ta\t-0.5", "-1 a -0.5 junk more")
        + "\\end\\\n",
        7, "fields after the back-off"),
}


@pytest.fixture(scope="session")
def play_fst():
    """The worked-example automaton: three words, all at weight -8."""
    return build_catalog_fst(PLAY_CATALOG)


@pytest.fixture(scope="session")
def toy_vocab():
    """Pieces for the worked example plus full single-letter coverage."""
    letters = set("abcdefghijklmnopqrstuvwxyz")
    return make_vocab(letters | {"pl", "ay", "er", "gr", "ou", "nd", "ca", "ll"})


def random_catalog(rng: random.Random, max_words=50, alphabet="abcdef",
                   weights=(-10.0, 0.0), max_len=8):
    """A random single-word catalog: distinct words, one weight each."""
    n = rng.randint(1, max_words)
    words = set()
    while len(words) < n:
        length = rng.randint(1, max_len)
        words.add("".join(rng.choice(alphabet) for _ in range(length)))
    return [
        CatalogEntry((w,), rng.uniform(*weights)) for w in sorted(words)
    ]


def walk_word(walk, chunks, token="_"):
    """Fold ``walk``'s transitions over one word from the start state: each
    content chunk, then the delimiter-bearing ``token`` through ``close_word``.

    Returns (expand increments, closing increment, matched arc id or None,
    state).  A chunk after the word died scores 0.0, as ``expand`` returns it.
    """
    state = walk.initial()
    increments = []
    for chunk in chunks:
        increment, state = walk.expand(state, chunk)
        increments.append(increment)
    closing, arc, state = walk.close_word(state, token)
    return increments, closing, arc, state
