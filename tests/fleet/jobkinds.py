"""Cheap job kinds for fleet tests; importing this module registers them."""

from __future__ import annotations

from repro.fleet import register_kind


def _echo(params, seed):
    return {"value": params.get("value"), "seed": seed}


def _fail(params, seed):
    raise RuntimeError("injected failure")


register_kind("test_echo", _echo)
register_kind("test_fail", _fail)
