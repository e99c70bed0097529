"""Package exports resolved on first use (PEP 562 module ``__getattr__``).

A package ``__init__`` that imports every submodule makes each caller
pay for all of them: ``import repro.cli`` used to load the pipeline,
the clustering kernels, the HTTP server and numpy before a stored
answer could be printed.  A package built with :func:`lazy_exports`
names its exports and the submodule each comes from; the submodule is
imported when a name is first read, and the value is then kept in the
package namespace, so later reads cost a dict lookup.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``.

    ``exports`` maps each public name to the relative module that
    defines it (``{"PipelineRunner": ".runner"}``).  An unknown name
    raises :class:`AttributeError`, which also lets ``from package
    import submodule`` fall through to the submodule import.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
