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
