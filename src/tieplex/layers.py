"""Layer declarations.

Kept apart from :mod:`tieplex.graph`, which re-exports
:class:`LayerSpec`, so that the synthetic generator can declare layers
without importing numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter


@dataclass(frozen=True)
class LayerSpec:
    """Declaration of one layer.

    A basic layer has no constituents; an aggregate names one or more
    basic layers whose edge sets it unions.  An aggregate with a single
    constituent is allowed (it is simply a renamed copy).  A name may not
    hold ``:`` or ``,``, which separate layers in the command line's
    ``--pairs`` and ``--closing-layers`` lists.
    """

    name: str
    kind: str = "basic"
    constituents: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise InvalidParameter("layer name must be non-empty")
        if ":" in self.name or "," in self.name:
            raise InvalidParameter(f"layer name '{self.name}' must not contain ':' or ','")
        if not isinstance(self.constituents, (list, tuple)):
            raise InvalidParameter(f"layer '{self.name}': constituents must be a list of layer names")
        object.__setattr__(self, "constituents", tuple(self.constituents))
        if self.kind not in ("basic", "aggregate"):
            raise InvalidParameter(f"layer '{self.name}': kind must be 'basic' or 'aggregate'")
        if self.kind == "basic" and self.constituents:
            raise InvalidParameter(f"basic layer '{self.name}' must not list constituents")
        if self.kind == "aggregate" and not self.constituents:
            raise InvalidParameter(f"aggregate layer '{self.name}' needs at least one constituent")

    @classmethod
    def basic(cls, name: str) -> "LayerSpec":
        return cls(name=name, kind="basic")

    @classmethod
    def aggregate(cls, name: str, *constituents: str) -> "LayerSpec":
        return cls(name=name, kind="aggregate", constituents=tuple(constituents))
