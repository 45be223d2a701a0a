"""Swap a nightrider function for a wrapper from outside the package, and back.

A function is reached through every module that binds it: its defining
module and each `from .x import f` of it.  rebind replaces all of those
bindings in the loaded nightrider modules, so nothing under src/ changes;
restore puts the originals back.
"""

from __future__ import annotations

import sys


def rebind(original, replacement):
    """Bind replacement wherever a loaded nightrider module binds original;
    returns the (module, attribute, original) list that restore undoes."""
    saved = []
    for name, m in list(sys.modules.items()):
        if name == "nightrider" or name.startswith("nightrider."):
            for attr, value in list(vars(m).items()):
                if value is original:
                    saved.append((m, attr, original))
                    setattr(m, attr, replacement)
    return saved


def restore(saved):
    """Undo the rebind calls whose lists are joined in saved."""
    for m, attr, original in reversed(saved):
        setattr(m, attr, original)
