"""Text embedding interface and the bundled deterministic embedder.

Production deployments plug in a real sentence encoder; every component in
this package only relies on the small contract below: a fixed output
dimension and L2-normalized vectors, with identical text mapping to
identical vectors.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import PreconditionError
from .hashing import fnv1a64_text

# a word: a run of ASCII letters and digits with no letter or digit of any
# script (``str.isalnum``, ``[^\W_]``) on either side, read from the original
# text and lowercased. The embedder and the entity linker share this rule.
_WORD = re.compile(r"(?<![^\W_])[0-9A-Za-z]+(?![^\W_])")

# distinct (token, dim) pairs whose slot is kept; a full cache is ~4 MiB
_TOKEN_SLOTS = 1 << 14


@lru_cache(maxsize=_TOKEN_SLOTS)
def _token_slot(token: str, dim: int) -> tuple[int, float]:
    """The bucket a token hashes to in ``dim`` dimensions, and its sign."""
    h = fnv1a64_text(token)
    return h % dim, 1.0 if h % 2 == 0 else -1.0


@runtime_checkable
class Embedder(Protocol):
    """Maps text into a shared d-dimensional semantic space.

    Implementations must be deterministic for identical input and return
    L2-normalized float vectors of dimension ``dim`` (norm 1 within 1e-6,
    except for the degenerate no-token input, which maps to the zero vector).
    """

    @property
    def dim(self) -> int: ...

    def embed(self, text: str) -> np.ndarray: ...


class HashedTokenEmbedder:
    """Deterministic bag-of-tokens embedder used in tests and offline runs.

    Its tokens are the words the entity linker reads: each run of ASCII
    letters and digits in the original text with no letter or digit on
    either side, lowercased (``_WORD``).
    It hashes each token with FNV-1a into one of ``dim`` buckets (sign taken
    from the hash parity), accumulates, and L2-normalizes. Shared tokens
    between two texts produce shared vector mass, so token overlap
    translates into cosine similarity. A text with no word, such as
    ``'???'`` or the Kelvin sign ``'\u212a'``, embeds to the zero vector.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise PreconditionError("embedding dimension must be >= 1")
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self._dim, dtype=np.float64)
        for word in _WORD.findall(text):
            bucket, sign = _token_slot(word.lower(), self._dim)
            vec[bucket] += sign
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec
