"""Integrity protection: endorsed components (§3.1).

"Integrity protection, in which Bob can authorize an application to
act on his behalf only if all of its components (such as its libraries
and configuration files) are meritorious."

The provider (or an editor it trusts) *endorses* modules after audit.
A user who opts into integrity protection
(:meth:`~repro.platform.provider.Provider.set_integrity_policy`) will
only have applications launched on her requests when the app and its
full transitive import closure — including the modules her own
preferences would swap in — are endorsed.  The check runs at launch,
before any developer code executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .registry import AppModule, Registry


@dataclass
class EndorsementService:
    """The provider's ledger of audited ("meritorious") components."""

    endorsed: set[str] = field(default_factory=set)
    #: (module, endorser) history for provenance display.
    history: list[tuple[str, str]] = field(default_factory=list)
    #: Durability hook: ``(op, data)`` per ledger change (journal).
    on_mutate: Optional[Callable[[str, dict], None]] = None
    def endorse(self, module_name: str, endorser: str = "provider") -> None:
        self.endorsed.add(module_name)
        self.history.append((module_name, endorser))
        if self.on_mutate is not None:
            self.on_mutate("endorse.add", {"module": module_name,
                                           "endorser": endorser})

    def retract(self, module_name: str) -> None:
        self.endorsed.discard(module_name)
        if self.on_mutate is not None:
            self.on_mutate("endorse.retract", {"module": module_name})

    def is_endorsed(self, module_name: str) -> bool:
        return module_name in self.endorsed

    # ------------------------------------------------------------------

    def component_closure(self, registry: Registry, app: AppModule,
                          preferences: Mapping[str, str] = ()
                          ) -> set[str]:
        """The app plus every module it could pull in: transitive
        declared imports, widened by the user's slot preferences."""
        closure: set[str] = set()
        frontier = [app.name]
        extra = [ref.partition("@")[0]
                 for ref in dict(preferences or {}).values()]
        frontier.extend(extra)
        while frontier:
            name = frontier.pop()
            if name in closure or name not in registry:
                continue
            closure.add(name)
            frontier.extend(registry.get(name).imports)
        return closure

    def check_app(self, registry: Registry, app: AppModule,
                  preferences: Mapping[str, str] = ()
                  ) -> tuple[bool, list[str]]:
        """(ok, unendorsed components) for launching ``app``."""
        closure = self.component_closure(registry, app, preferences)
        missing = sorted(name for name in closure
                         if not self.is_endorsed(name))
        return (not missing, missing)
