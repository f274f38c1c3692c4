"""Operator tools: one-shot regeneration of every paper element."""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "reproduce": "reproduce_all write_report",
})
