"""Argument types shared by the command-line front doors."""

from __future__ import annotations

import argparse

__all__ = ["parse_bins", "positive"]


def positive(text: str) -> int:
    """The one check on counts: a run of zero anything proves nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_bins(text: str) -> tuple[int, ...]:
    """A comma-separated list of positive bin counts."""
    try:
        bins = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad bins list {text!r}") from None
    if not bins or any(b <= 0 for b in bins):
        raise argparse.ArgumentTypeError("bins must be positive integers")
    return bins
