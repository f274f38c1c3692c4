"""Hash family for the bin-based indexes.

Three keys are hashed (§III-B): ``(source, tag)`` for fully-specified
receives, ``tag`` alone for source-wildcard receives, and ``source``
alone for tag-wildcard receives. The functions return a full-width
hash word; callers reduce modulo their bin count. Keeping the raw word
separate from the reduction is what makes the sender-side *inline
hash* optimization possible (§IV-D): the sender does not know the
receiver's bin count.

The mixer is Fibonacci/multiplicative hashing (splitmix64 finalizer),
chosen because it is cheap enough for a per-message budget on a
lightweight accelerator and spreads the small, clustered integer
domains of MPI ranks and tags well across power-of-two bin counts.
"""

from __future__ import annotations

from repro.core.constants import WildcardClass
from repro.core.envelope import InlineHashes, MessageEnvelope

__all__ = [
    "mix64",
    "hash_src_tag",
    "hash_tag",
    "hash_src",
    "receive_hash",
    "compute_inline_hashes",
    "bucket_of",
]

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """splitmix64 finalizer: a cheap, well-distributed 64-bit mixer."""
    value = value & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def hash_src_tag(source: int, tag: int) -> int:
    """Hash word for the no-wildcard index key ``(source, tag)``."""
    return mix64((source & 0xFFFFFFFF) << 32 | (tag & 0xFFFFFFFF))


def hash_tag(tag: int) -> int:
    """Hash word for the source-wildcard index key ``tag``."""
    return mix64(0xA5A5_0000_0000_0000 | (tag & 0xFFFFFFFF))


def hash_src(source: int) -> int:
    """Hash word for the tag-wildcard index key ``source``."""
    return mix64(0x5A5A_0000_0000_0000 | (source & 0xFFFFFFFF))


def receive_hash(wildcard_class: WildcardClass, source: int, tag: int) -> int:
    """Hash word of the one key a receive of this class is indexed under.

    The same word addresses the receive's bucket in its own index and
    in the mirrored unexpected store (§IV-C), so a posting hashes once.
    The double-wildcard list has no key; its word is 0.
    """
    if wildcard_class is WildcardClass.NONE:
        return hash_src_tag(source, tag)
    if wildcard_class is WildcardClass.SOURCE:
        return hash_tag(tag)
    if wildcard_class is WildcardClass.TAG:
        return hash_src(source)
    return 0


def compute_inline_hashes(source: int, tag: int) -> InlineHashes:
    """Sender-side hash precomputation (§IV-D *inline hash values*)."""
    return InlineHashes(
        src_tag=hash_src_tag(source, tag),
        tag_only=hash_tag(tag),
        src_only=hash_src(source),
    )


def bucket_of(hash_word: int, bins: int) -> int:
    """Reduce a hash word to a bucket index for a ``bins``-bin table."""
    if bins <= 0:
        raise ValueError(f"bin count must be positive, got {bins}")
    return hash_word % bins


def message_hashes(msg: MessageEnvelope) -> InlineHashes:
    """Hash words for a message, honouring inline hashes when present.

    When the sender shipped inline hashes we use them verbatim (and the
    cost model credits the saved compute); otherwise they are computed
    receiver-side.
    """
    if msg.inline_hashes is not None:
        return msg.inline_hashes
    return compute_inline_hashes(msg.source, msg.tag)
