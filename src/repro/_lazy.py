"""PEP 562 lazy re-exports, shared by the package ``__init__`` modules."""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """Module ``__getattr__`` and ``__dir__`` for the package whose globals
    are ``namespace``: a name in ``exports`` (name -> relative module) is
    imported on first access, so importing the package loads none of them."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(exports[name], package), name)
        namespace[name] = value  # later lookups find it without coming here
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
