"""Query text processing: stopword removal and rule-based inflectional stemming.

The stemmer is a small, dictionary-free subset of non-destructive stemming:
plural -s/-es/-ies, -ing, and -ed with doubled-consonant repair and final-e
restoration. The rule table lives in ``_repair`` and is pinned by tests;
changing it changes query semantics.
"""
from __future__ import annotations

from ..lexical_index import tokenize

# Fixed 120-word stopword list. Versioned here on purpose: query processing
# must be reproducible across installs.
STOPWORDS = frozenset("""
a about above after again against all am an and any are as at be because been
before being below between both but by can cannot could did do does doing down
during each few for from further had has have having he her here hers him his
how i if in into is it its itself just me more most my no nor not now of off
on once only or other our ours out over own same she should so some such than
that the their theirs them then there these they this those through to too
under until up upon very was we were what when where which while who whom why
will with would you your
""".split())

_VOWELS = frozenset("aeiou")
_KEEP_DOUBLE = frozenset(("ll", "ss", "zz"))
# Final letters that take a restored 'e' after -ing/-ed stripping
# (parsing -> pars -> parse, using -> us -> use, dancing -> danc -> dance).
_E_FINALS = frozenset("svzcu")


def _has_vowel(s: str) -> bool:
    return any(ch in _VOWELS for ch in s)


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions; a crude syllable count."""
    m = 0
    prev_vowel = False
    for ch in stem:
        is_vowel = ch in _VOWELS
        if prev_vowel and not is_vowel:
            m += 1
        prev_vowel = is_vowel
    return m


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    c1, v, c2 = stem[-3], stem[-2], stem[-1]
    return c1 not in _VOWELS and v in _VOWELS and c2 not in _VOWELS and c2 not in "wxy"


def _repair(stem: str) -> str:
    """Post-strip repair: undo consonant doubling, restore a trailing 'e'."""
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS \
            and stem[-2:] not in _KEEP_DOUBLE:
        return stem[:-1]
    if stem and stem[-1] in _E_FINALS and (len(stem) < 2 or stem[-2] != stem[-1]):
        return stem + "e"
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def stem_token(word: str) -> str:
    """Apply the inflectional rule table to one lowercase token.

    Plural endings are stripped before -ing/-ed so forms like "meanings"
    reduce in one pass. A stem left by one pass can still end in a
    strippable suffix ("aaeding" -> "aaed"), so passes repeat until nothing
    changes; each changing pass shortens the word, and the result is a
    fixed point of the function.
    """
    stem = _stem_pass(word)
    while (shorter := _stem_pass(stem)) != stem:
        stem = shorter
    return stem


def _stem_pass(word: str) -> str:
    """One application of the rule table."""
    w = word
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies") and len(w) >= 4:
        w = w[:-3] + "y"
    elif w.endswith("es") and len(w) >= 4 and w[-3] in "xzh":
        w = w[:-2]
    elif w.endswith("s") and len(w) >= 4 and not w.endswith(("ss", "us", "is")):
        w = w[:-1]
    if len(w) >= 5 and w.endswith("ing") and _has_vowel(w[:-3]):
        return _repair(w[:-3])
    if w.endswith("ed") and not w.endswith("eed") and len(w) >= 4 \
            and _has_vowel(w[:-2]):
        return _repair(w[:-2])
    return w


def make_query(title: str) -> str:
    """Turn a document title into a processed query string.

    Lowercases, tokenizes, drops stopwords, stems. May legitimately return
    the empty string when every token is a stopword.
    """
    kept = [stem_token(tok) for tok in tokenize(title) if tok not in STOPWORDS]
    return " ".join(kept)
