"""Seeded synthetic evaluation tasks for the biasing pipeline.

Real assistant traffic is not shippable, so experiments and the acceptance
suite run on generated data: syllabic personal names (contacts, devices,
applications), carrier-phrase contact utterances, a pool of general
utterances, and training corpora for the rescoring language models.  A few
"trap" names are derived from general-utterance words by a one-vowel swap,
which gives aggressive biasing something to get wrong on the general set.
All sampling is driven by one seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fst import CatalogEntry
from .wordpiece import WordpieceVocab, make_vocab, segment

CONSONANTS = "bdfgjklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = tuple(c + v for c in CONSONANTS for v in VOWELS)

CONTACT_CARRIERS = ("call", "dial", "text", "message")
DEVICE_CARRIERS = ("switch on", "power up")
APP_CARRIERS = ("open", "launch")

GENERAL_SENTENCES = (
    "play some music",
    "play a demo song",
    "turn down the radio",
    "what time is it now",
    "set a timer for ten minutes",
    "how is the weather today",
    "turn off the kitchen lights",
    "add milk to my shopping list",
    "tell me a joke",
    "play my morning playlist",
    "what is on my calendar",
    "remind me to water the plants",
    "turn up the heat a little",
    "is it going to rain tomorrow",
    "play the news briefing",
    "skip to the next song",
    "stop the music please",
    "how far away is the moon",
    "what day is it today",
    "set an alarm for seven",
    "resume my audiobook",
    "make the lights a bit warmer",
    "what is the capital of peru",
    "play some piano covers",
    "show me my photos",
)

TWO_WORD_SHARE = 0.25  # share of generated contact names with a second word
# The class corpus repeats each carrier template CLASS_MIN_COUNT + 5 times
# and one decoy template CLASS_MIN_COUNT - 1 times.
CLASS_MIN_COUNT = 10

# General words eligible for trap-name derivation and emission confusion;
# they stand in for rare-word lookalikes in real traffic.
TRAP_SOURCES = ("demo", "time", "timer", "radio", "peru", "piano", "moon", "seven")


def default_vocab() -> WordpieceVocab:
    letters = set("abcdefghijklmnopqrstuvwxyz")
    return make_vocab(letters | set(SYLLABLES))


def make_name(rng: random.Random, syllables: tuple[int, int] = (2, 4)) -> str:
    n = rng.randint(*syllables)
    return "".join(rng.choice(SYLLABLES) for _ in range(n))


def trap_name(vocab: WordpieceVocab, word: str, rng: random.Random) -> str | None:
    """A lookalike name: the word with one vowel swapped in its last syllable."""
    pieces = list(segment(vocab, word))[:-1]  # drop the delimiter
    for i in range(len(pieces) - 1, -1, -1):
        piece = pieces[i]
        if len(piece) == 2 and piece in SYLLABLES:
            new_vowel = rng.choice([v for v in VOWELS if v != piece[1]])
            pieces[i] = piece[0] + new_vowel
            candidate = "".join(pieces)
            return candidate if candidate != word else None
    return None


@dataclass
class SynthTask:
    """One generated evaluation setup (catalogs, references, LM corpora)."""

    vocab: WordpieceVocab
    contacts: list[CatalogEntry]
    devices: list[CatalogEntry]
    apps: list[CatalogEntry]
    refs_test: dict[str, str]
    refs_dev: dict[str, str]
    class_corpus: list[str]
    generic_lm_corpus: list[str]
    contacts_lm_corpus: list[str]
    noisy_words: frozenset[str]
    catalog_weight: float

    @property
    def contact_words(self) -> frozenset[str]:
        return frozenset(w for e in self.contacts for w in e.phrase)

    def all_bias_entries(self) -> list[CatalogEntry]:
        """Union of the three catalogs (for non-contextual biasing)."""
        seen = set()
        out = []
        for entry in self.contacts + self.devices + self.apps:
            if entry.phrase not in seen:
                seen.add(entry.phrase)
                out.append(entry)
        return out


def _unique_names(rng, count, existing, two_word_share=0.0, syllables=(2, 4)):
    names: list[str] = []
    taken = set(existing)
    while len(names) < count:
        name = make_name(rng, syllables)
        if two_word_share and rng.random() < two_word_share:
            name = f"{name} {make_name(rng, (2, 3))}"
        if name not in taken and all(w not in taken for w in name.split()):
            taken.add(name)
            taken.update(name.split())
            names.append(name)
    return names


def make_task(
    seed: int = 0,
    *,
    n_contacts: int = 600,
    n_devices: int = 50,
    n_apps: int = 70,
    n_test: int = 100,
    n_dev: int = 60,
    catalog_weight: float = 1.8,
) -> SynthTask:
    """Generate a complete synthetic task from one seed.

    Catalog weights are positive: the decode harness adds the scaled biasing
    score to the fused log-probability, so positive weights boost matches.
    """
    rng = random.Random(f"synthtask:{seed}")
    vocab = default_vocab()

    general_vocab = {w for s in GENERAL_SENTENCES for w in s.split()}
    reserved = set(general_vocab)
    for carrier in CONTACT_CARRIERS + DEVICE_CARRIERS + APP_CARRIERS:
        reserved.update(carrier.split())

    traps = []
    for word in TRAP_SOURCES:
        t = trap_name(vocab, word, rng)
        if t and t not in reserved:
            traps.append(t)
            reserved.add(t)
    contact_names = traps + _unique_names(
        rng, n_contacts - len(traps), reserved, TWO_WORD_SHARE
    )
    reserved.update(w for n in contact_names for w in n.split())
    device_names = _unique_names(rng, n_devices, reserved, 0.0, (2, 3))
    reserved.update(device_names)
    app_names = _unique_names(rng, n_apps, reserved, 0.0, (2, 3))

    contacts = [CatalogEntry.from_text(n, catalog_weight) for n in sorted(contact_names)]
    devices = [CatalogEntry.from_text(n, catalog_weight) for n in sorted(device_names)]
    apps = [CatalogEntry.from_text(n, catalog_weight) for n in sorted(app_names)]

    def contact_utterance(r: random.Random) -> str:
        return f"{r.choice(CONTACT_CARRIERS)} {r.choice(contact_names)}"

    refs_test: dict[str, str] = {}
    refs_dev: dict[str, str] = {}
    for i in range(n_test):
        refs_test[f"contacts-t{i:04d}"] = contact_utterance(rng)
        refs_test[f"general-t{i:04d}"] = rng.choice(GENERAL_SENTENCES)
    for i in range(n_dev):
        refs_dev[f"contacts-d{i:04d}"] = contact_utterance(rng)
        refs_dev[f"general-d{i:04d}"] = rng.choice(GENERAL_SENTENCES)

    class_corpus: list[str] = []
    for carrier in CONTACT_CARRIERS:
        for _ in range(CLASS_MIN_COUNT + 5):
            class_corpus.append(f"{carrier} @contactname({rng.choice(contact_names)})")
    for carrier in DEVICE_CARRIERS:
        for _ in range(CLASS_MIN_COUNT + 5):
            class_corpus.append(f"{carrier} @devicename({rng.choice(device_names)})")
    for carrier in APP_CARRIERS:
        for _ in range(CLASS_MIN_COUNT + 5):
            class_corpus.append(f"{carrier} @appname({rng.choice(app_names)})")
    # Below-threshold templates that must not survive the count filter.
    for _ in range(CLASS_MIN_COUNT - 1):
        class_corpus.append(f"maybe call @contactname({rng.choice(contact_names)})")
    rng.shuffle(class_corpus)

    generic_lm_corpus = [rng.choice(GENERAL_SENTENCES) for _ in range(400)]
    contacts_lm_corpus = [rng.choice(GENERAL_SENTENCES) for _ in range(250)]
    for name in contact_names:
        carrier = rng.choice(CONTACT_CARRIERS)
        contacts_lm_corpus.append(f"{carrier} @contactname({name})")
    rng.shuffle(contacts_lm_corpus)

    noisy_words = frozenset(
        {w for n in contact_names for w in n.split()} | set(TRAP_SOURCES)
    )
    return SynthTask(
        vocab=vocab,
        contacts=contacts,
        devices=devices,
        apps=apps,
        refs_test=refs_test,
        refs_dev=refs_dev,
        class_corpus=class_corpus,
        generic_lm_corpus=generic_lm_corpus,
        contacts_lm_corpus=contacts_lm_corpus,
        noisy_words=noisy_words,
        catalog_weight=catalog_weight,
    )
