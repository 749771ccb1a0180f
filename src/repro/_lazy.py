"""PEP 562 lazy exports for the package ``__init__`` modules.

A package lists its public names in a table from submodule to names and
hands it to :func:`lazy_exports`.  Importing the package then runs none
of its submodules: a name's submodule is imported on the name's first
access, so a process pays only for the layers it uses (a warm cache
read never loads the compiler's numpy-backed executors).

The attribute is read from the defining module on every access and is
never copied into the package, so a function replaced there later (a
profiler's wrapper, say) is what every later importer sees.

Registrations that run at import time (``@template``, the verifier's
rule table) live in the module that reads them, so a registry is always
full by the time anything can look into it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, table: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` over ``table``.

    ``table`` maps a submodule name (relative, without the dot) to the
    public names it defines.
    """
    origin = {name: module for module, names in table.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{module}"), name)

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
