"""Lazy package facades (PEP 562).

A package whose ``__init__`` re-exports its submodules' public names
eagerly makes every importer pay for all of them: ``import
repro.net.server`` would load the client, the load generator and the
chaos proxy only because ``repro/net/__init__.py`` names them.  A lazy
facade maps each public name to the submodule that defines it and
imports that submodule on first access, so a process loads only the
modules it touches::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        "repro.net.server": ("DocumentStore", "NetServer"),
        ...
    })

``__all__``, ``dir()``, ``from package import name`` and attribute
access behave as they did with the eager imports.  A subpackage or
submodule reached as an attribute (``repro.obs`` after ``import
repro``) is imported on first access, as the eager facade had left it
imported.

One trap stays with the caller: a public name that is also the name of
a submodule (``repro.prep.prepare``) must be bound eagerly, after the
submodule is imported, because importing a submodule rebinds the
package attribute of the same name to the module.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, namespace: Dict[str, Any], exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for *package*'s module namespace.

    *exports* maps each submodule to the names the package re-exports
    from it; a resolved name is stored in *namespace* (the package's
    ``globals()``), so each is looked up once.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is not None:
            value = namespace[name] = getattr(import_module(module), name)
            return value
        if not name.startswith("__"):
            qualified = f"{package}.{name}"
            try:
                return import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__
