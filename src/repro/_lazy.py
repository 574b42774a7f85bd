"""First-use re-exports for the package ``__init__``s (PEP 562).

A package imports the modules the online classify pass runs
(``load_model`` → ``open_engine`` → ``process_source``) and names the
rest — training, trace generation, the paper-study libraries — in a
table that :func:`lazy_exports` resolves on first access. See
DESIGN.md's "Import path".
"""

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, table: "dict[str, str]"):
    """``(__getattr__, __dir__)`` for a package whose ``table`` names load late.

    ``table`` maps an exported name to the module that defines it. The
    first access imports that module and stores the value in
    ``namespace`` (the package's ``globals()``), so every later lookup
    is a plain attribute read.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> "list[str]":
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
