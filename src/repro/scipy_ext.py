"""scipy's compiled extensions, loaded from their files.

A ``place`` runs three of them and none of scipy's Python packages:
HiGHS' bindings (:mod:`repro.flows.highs`), the sparse kernels
(:mod:`repro.qp.models`) and SuperLU (:mod:`repro.qp.solver`).  They
are private to scipy, hence the pinned :data:`SCIPY_FLOOR`
(docs/performance.md, "What a place process pays outside placement").
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from typing import Optional

#: the oldest scipy whose private extensions (HiGHS' ``_core``,
#: ``_sparsetools``, ``_superlu``) this package is written against;
#: ``pyproject.toml`` declares it
SCIPY_FLOOR = "1.17"


def extension_file(name: str) -> Optional[str]:
    """The path of the extension module ``name`` (a dotted name under
    ``scipy``) in scipy's package directory, or ``None`` where no such
    file is found."""
    package, *parts = name.split(".")
    spec = importlib.util.find_spec(package)
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, *parts) + suffix
            if os.path.isfile(path):
                return path
    return None


def load_extension(name: str, purpose: str):
    """The extension module ``name``, loaded from its file and
    registered in ``sys.modules``, so a later scipy import reuses it.
    Its parent packages stay unloaded and never get it as an attribute:
    reach it by import, not as an attribute path.  Where the file is not
    found, the package import loads it; a failed import raises an
    :class:`ImportError` naming ``purpose`` and :data:`SCIPY_FLOOR`."""
    try:
        if name not in sys.modules:
            path = extension_file(name)
            if path is not None:
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                try:
                    spec.loader.exec_module(module)
                except BaseException:
                    del sys.modules[name]
                    raise
        return importlib.import_module(name)
    except ImportError as exc:
        raise ImportError(
            f"{purpose} ({name}): needs scipy>={SCIPY_FLOOR}"
        ) from exc
