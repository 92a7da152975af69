"""Platform-level errors, rooted in the unified :mod:`repro.errors` tree."""

from __future__ import annotations

from ..errors import FlowDenied, NotFound, W5Error


class PlatformError(W5Error):
    """Base class for meta-application failures."""


class NoSuchUser(PlatformError, NotFound):
    """The named account does not exist."""


class NoSuchApp(PlatformError, NotFound):
    """The named application/module is not registered."""


class NotAuthorized(PlatformError, FlowDenied):
    """The acting user lacks the right to perform a platform action."""


class AppCrashed(PlatformError):
    """Developer code raised; the platform converts this to a 500
    without leaking internals (§3.5 Debugging)."""


class BaseMismatch(PlatformError):
    """A journal was folded over a full snapshot it does not extend:
    the checkpoint id its header names is not the snapshot's."""
