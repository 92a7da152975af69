"""The security perimeter.

"The provider must establish a logical security perimeter that excludes
external clients and that allows only 'authorized' data to exit" (§2).
The :class:`Gateway` is that perimeter: the single code path by which
bytes leave labeled space.  Its export rule is the paper's boilerplate
policy (§3.1):

    *Bob's data can only leave the security perimeter if destined for
    Bob's browser.*

Mechanically: a response rendered for authenticated user *u* may carry
secrecy tags only from *u*'s own **export authority** — the set of
``t-`` capabilities the platform associates with *u* (her own data
tags, plus any tags whose owners granted her access through a
declassifier).  Any residual tag means somebody else's secret would
ride out in the response, and the gateway refuses with a 403 and a
DENY audit record.

The gateway also applies the client-side JavaScript policy (§3.5):
``JS_BLOCK`` strips scripts from exported HTML, ``JS_ALLOW`` passes
them through (for deployments adopting MashupOS-style client support).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..kernel import Kernel
from ..kernel import audit as A
from ..labels import CapabilitySet, Label, SecrecyViolation
from .http import HttpRequest, HttpResponse, contains_javascript, strip_javascript
from .session import SESSION_COOKIE, Session, SessionManager

JS_BLOCK = "block"
JS_ALLOW = "allow"


class ExportViolation(SecrecyViolation):
    """Labeled data tried to cross the perimeter without authority."""


#: Signature of the authority oracle the platform plugs in:
#: username (or None for anonymous recipients) -> the CapabilitySet of
#: export privileges held for them.  Anonymous recipients are real
#: callers of this oracle — public declassifiers can open tags to
#: everyone — so the argument is Optional, matching what
#: :meth:`Gateway.export_check` actually passes.
AuthorityFn = Callable[[Optional[str]], CapabilitySet]


class Gateway:
    """The one door in the wall.

    ``rate_limit`` caps requests per principal per window — §3.5's
    resource policing applied at the edge, before a request even
    reaches an application.  ``None`` disables it.  Anonymous traffic
    shares one bucket (a deliberate, documented coarseness: per-IP
    buckets are beyond the simulator's network model).
    """

    def __init__(self, kernel: Kernel, sessions: SessionManager,
                 authority_for: AuthorityFn,
                 js_policy: str = JS_BLOCK,
                 rate_limit: Optional[int] = None,
                 rate_window: int = 100) -> None:
        if js_policy not in (JS_BLOCK, JS_ALLOW):
            raise ValueError(f"unknown js policy {js_policy!r}")
        self.kernel = kernel
        self.sessions = sessions
        self.authority_for = authority_for
        self.js_policy = js_policy
        self.rate_limit = rate_limit
        self.rate_window = rate_window
        self._tick = 0
        self._window_counts: dict[str, int] = {}
        #: Counters the benchmarks read.
        self.exports_allowed = 0
        self.exports_denied = 0
        self.rate_limited = 0

    # ------------------------------------------------------------------
    # edge policing
    # ------------------------------------------------------------------

    def admit(self, principal: Optional[str]) -> bool:
        """Count a request against its principal's window; False means
        the caller should answer 429 without doing any work.

        No span of its own: the provider's ``gateway.admission`` span
        covers authenticate + admit in one timed unit (two extra spans
        here were pure overhead on the hot path).
        """
        if self.rate_limit is None:
            return True
        self._tick += 1
        if self._tick % self.rate_window == 0:
            self._window_counts.clear()
        key = principal or "<anonymous>"
        count = self._window_counts.get(key, 0) + 1
        self._window_counts[key] = count
        if count > self.rate_limit:
            self.rate_limited += 1
            self.kernel.audit.record(A.RESOURCE, False, "gateway",
                                     f"rate limit: {key}")
            return False
        return True

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def authenticate(self, request: HttpRequest) -> Optional[Session]:
        """Resolve the session cookie; None means anonymous.

        Timed by the provider's ``gateway.admission`` span, together
        with :meth:`admit`.
        """
        return self.sessions.resolve(request.cookies.get(SESSION_COOKIE))

    # ------------------------------------------------------------------
    # egress
    # ------------------------------------------------------------------

    def export_check(self, content_label: Label,
                     recipient: Optional[str],
                     authority: Optional[CapabilitySet] = None) -> None:
        """Raise :class:`ExportViolation` unless every secrecy tag on
        the content is within the recipient's export authority.

        ``authority`` is the recipient's export authority when the
        caller already holds a current copy (a request plan's, checked
        against ``authority_epoch``); ``None`` asks the oracle live.
        Anonymous recipients (``None``) are asked of the oracle too:
        they hold no authority of their own, but an owner's *public*
        declassifier may open specific tags to everyone.  Unlabeled
        content exits under any authority, so it skips the oracle.

        Timed by the caller's ``gateway.egress`` span on detail-sampled
        traces (the nested ``declass.authority`` span still shows the
        oracle's share there).
        """
        if not content_label.is_empty():
            if authority is None:
                authority = self.authority_for(recipient)
            residue = self.kernel.flow_cache.exportable_residue(
                content_label, authority, category="net.export")
            if not residue.is_empty():
                self.exports_denied += 1
                tags = sorted(t.tag_id for t in residue)
                self.kernel.audit.record(
                    A.EXPORT, False, "gateway",
                    f"deny export to {recipient or 'anonymous'}: "
                    f"residual tags {tags}")
                raise ExportViolation(
                    f"response for {recipient or 'anonymous'} carries "
                    f"secrecy tags {tags} outside their export authority")
        self.exports_allowed += 1
        self.kernel.audit.record_lazy(
            A.EXPORT, True, "gateway",
            "allow export to %s", (recipient or "anonymous",))

    def egress(self, response: HttpResponse, recipient: Optional[str],
               js_policy: Optional[str] = None,
               authority: Optional[CapabilitySet] = None) -> HttpResponse:
        """Run the export check and sanitize the response for the wire.

        On refusal the *client* receives a generic 403 that names no
        tags (naming them would itself leak); the specifics live in the
        audit log for the provider.  ``js_policy`` overrides the
        gateway default per request (W5 lets users choose their own
        client-side posture, §3.5); ``authority`` is passed through to
        :meth:`export_check`.

        The ``gateway.egress`` span is detail-tier: it appears on
        sampled traces.  A refusal is never invisible on the others —
        the 403 status the provider stamps on the root span marks the
        trace as an error (so the flight recorder keeps it), and the
        DENY audit record carries the trace id either way.
        """
        with self.kernel.tracer.detail(
                "gateway.egress", recipient=recipient or "anonymous") as sp:
            try:
                self.export_check(response.content_label, recipient,
                                  authority)
            except ExportViolation:
                sp.fail("ExportViolation")
                sp.annotate(denied=True)
                return HttpResponse(status=403,
                                    body={"error": "not authorized"},
                                    content_label=Label.EMPTY)
            # Sanitize in place: the pre-export response is
            # request-private (built by the app wrapper moments earlier
            # and never retained), so rebuilding the dataclass and
            # copying its header dicts would buy nothing.
            effective_js = js_policy if js_policy in (JS_BLOCK, JS_ALLOW) \
                else self.js_policy
            body = response.body
            if effective_js == JS_BLOCK and isinstance(body, str) \
                    and contains_javascript(body):
                response.body = strip_javascript(body)
                self.kernel.audit.record(A.EXPORT, True, "gateway",
                                         "stripped javascript at perimeter")
            response.content_label = Label.EMPTY
            return response
