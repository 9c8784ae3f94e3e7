"""Unicode normalisation and case folding.

Applied before tokenisation so that curly quotes, accents, and case
variants all map to one canonical surface form — mirroring Lucene's
ASCII-folding + lowercase filter chain used by Anserini's default analyzer.
"""

from __future__ import annotations

import unicodedata

# Common punctuation look-alikes normalised to ASCII so the tokenizer's
# character classes stay simple.
_PUNCT_MAP = str.maketrans(
    {
        "‘": "'",
        "’": "'",
        "“": '"',
        "”": '"',
        "–": "-",
        "—": "-",
        "…": "...",
        " ": " ",
    }
)


def strip_accents(text: str) -> str:
    """Remove combining marks: ``café`` → ``cafe``."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_text(text: str, *, casefold: bool = True) -> str:
    """Canonicalise ``text`` for analysis.

    Applies NFKC normalisation, punctuation folding, accent stripping, and
    (by default) case folding. Length may change; this is applied to
    individual *tokens* (not whole documents) wherever offsets must remain
    valid.

    ASCII input returns at once: NFKC, the punctuation map and accent
    stripping leave it unchanged, and on ASCII ``casefold`` is ``lower``.
    """
    if text.isascii():
        return text.lower() if casefold else text
    text = unicodedata.normalize("NFKC", text)
    text = text.translate(_PUNCT_MAP)
    text = strip_accents(text)
    if casefold:
        text = text.casefold()
    return text
