"""The Porter stemming algorithm (Porter, 1980), implemented in full.

This is the stemmer Lucene's ``EnglishAnalyzer`` family descends from; we
implement the original five-step algorithm so indexed terms, query terms,
and perturbation terms all conflate identically.

Every condition of the algorithm reads a word's consonant/vowel pattern:
the measure m of a stem (its number of vowel-consonant sequences),
whether the stem contains a vowel (*v*), ends in a double consonant
(*d) or ends consonant-vowel-consonant (*o). A letter's class depends
only on the letters before it, so a stem's pattern is a prefix of its
word's pattern. :meth:`PorterStemmer.stem` therefore derives the pattern
once, keeps it in step with each suffix it replaces, and reads every
condition from it with one string operation.
"""

from __future__ import annotations


def _pattern(word: str) -> str:
    """One ``c`` (consonant) or ``v`` (vowel) per letter of ``word``.

    ``a e i o u`` are vowels; ``y`` is a vowel after a consonant and a
    consonant at the start of a word or after a vowel; every other
    character, digits and non-ASCII letters included, is a consonant.
    """
    classes = []
    previous = "v"  # so a leading "y" reads as a consonant
    for ch in word:
        if ch in "aeiou":
            previous = "v"
        elif ch == "y" and previous == "c":
            previous = "v"
        else:
            previous = "c"
        classes.append(previous)
    return "".join(classes)


def _rules(*rules: tuple[str, str]) -> dict[str, tuple[tuple[str, str, str], ...]]:
    """Suffix rules grouped by their last two letters, in Porter's order.

    A word can only end in a suffix that shares its last two letters, so
    a step tests just that group, and its first match is the first match
    of the whole list. Each rule carries its replacement's pattern.
    """
    grouped: dict[str, list[tuple[str, str, str]]] = {}
    for suffix, replacement in rules:
        grouped.setdefault(suffix[-2:], []).append(
            (suffix, replacement, _pattern(replacement))
        )
    return {ending: tuple(group) for ending, group in grouped.items()}


_STEP2 = _rules(
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
    ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3 = _rules(
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4 = _rules(*(
    (suffix, "") for suffix in (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )
))


def _ends_cvc(word: str, pattern: str, n: int) -> bool:
    """*o for ``word[:n]``: consonant-vowel-consonant, last not w, x or y."""
    return pattern.endswith("cvc", 0, n) and word[n - 1] not in "wxy"


class PorterStemmer:
    """Stateless Porter stemmer; ``stem("running") == "run"``.

    ``word`` and its ``pattern`` move together: every step cuts both to
    the same length ``n`` and appends the replacement with its pattern.
    m of ``word[:n]`` is ``pattern.count("vc", 0, n)``, and *v* is a
    ``"v"`` in ``pattern[:n]``.
    """

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (expected lowercase)."""
        if len(word) <= 2:
            return word
        pattern = _pattern(word)

        # Step 1a: plurals.
        if word.endswith(("sses", "ies")):
            word, pattern = word[:-2], pattern[:-2]
        elif word[-1] == "s" and word[-2] != "s":
            word, pattern = word[:-1], pattern[:-1]

        # Step 1b: -eed, -ed, -ing, then repair the stem left behind.
        if word.endswith("eed"):
            if pattern.count("vc", 0, len(word) - 3):
                word, pattern = word[:-1], pattern[:-1]
        else:
            n = -1
            if word.endswith("ed"):
                n = len(word) - 2
            elif word.endswith("ing"):
                n = len(word) - 3
            if n > 0 and "v" in pattern[:n]:
                word, pattern = word[:n], pattern[:n]
                if word.endswith(("at", "bl", "iz")):
                    word, pattern = word + "e", pattern + "v"
                elif (
                    n >= 2
                    and word[-1] == word[-2]
                    and pattern[-1] == "c"
                    and word[-1] not in "lsz"
                ):
                    word, pattern = word[:-1], pattern[:-1]
                elif pattern.count("vc") == 1 and _ends_cvc(word, pattern, n):
                    word, pattern = word + "e", pattern + "v"

        # Step 1c: a terminal y after a vowel-bearing stem becomes i.
        if word.endswith("y") and "v" in pattern[:-1]:
            word, pattern = word[:-1] + "i", pattern[:-1] + "v"

        # Steps 2 and 3: double and single suffixes, where m > 0.
        for rules in (_STEP2, _STEP3):
            for suffix, replacement, tail in rules.get(word[-2:], ()):
                if word.endswith(suffix):
                    n = len(word) - len(suffix)
                    if pattern.count("vc", 0, n):
                        word = word[:n] + replacement
                        pattern = pattern[:n] + tail
                    break

        # Step 4: drop a suffix where m > 1 (-ion only after s or t).
        for suffix, _, _ in _STEP4.get(word[-2:], ()):
            if word.endswith(suffix):
                n = len(word) - len(suffix)
                if pattern.count("vc", 0, n) > 1:
                    word, pattern = word[:n], pattern[:n]
                break
        else:
            n = len(word) - 3
            if (
                word.endswith("ion")
                and pattern.count("vc", 0, n) > 1
                and word[n - 1] in "st"
            ):
                word, pattern = word[:n], pattern[:n]

        # Step 5a: a final e goes where m > 1, or m == 1 and not *o.
        if word.endswith("e"):
            n = len(word) - 1
            m = pattern.count("vc", 0, n)
            if m > 1 or (m == 1 and not _ends_cvc(word, pattern, n)):
                word, pattern = word[:n], pattern[:n]

        # Step 5b: -ll becomes -l where m > 1.
        if word.endswith("ll") and pattern.count("vc") > 1:
            word = word[:-1]
        return word
