"""Lazy package exports (PEP 562).

A package ``__init__`` names what it re-exports in one table, defining
submodule → space-separated names, and binds what :func:`lazy_exports`
returns. Importing the package then loads none of its modules; the first
use of a name imports its defining module and caches the name in the
package namespace, so later lookups never come back here.
"""

from importlib import import_module


def lazy_exports(namespace: dict, table: dict[str, str]):
    """``(__getattr__, __dir__, __all__)`` for the package whose globals are
    ``namespace``; ``table`` keys are submodule paths relative to it."""
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{package}.{owner[name]}"), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owner})

    return __getattr__, __dir__, sorted(owner)
