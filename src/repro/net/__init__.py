"""The network edge: HTTP model, sessions, clients, and the perimeter."""

from .browser import Browser, Frame, FrameIsolationError
from .client import ExternalClient, Transport
from .dns import NameNotFound, Resolver, WebBrowserClient, split_url
from .email import Email, EmailGateway, Mailbox
from .envelopes import Envelope, EnvelopeChannel
from .gateway import (JS_ALLOW, JS_BLOCK, AuthorityFn, ExportViolation,
                      Gateway)
from .http import (GET, POST, HttpRequest, HttpResponse, contains_javascript,
                   error, ok, strip_javascript)
from .session import SESSION_COOKIE, AuthError, Session, SessionManager

__all__ = [
    "Browser", "Frame", "FrameIsolationError",
    "ExternalClient", "Transport",
    "NameNotFound", "Resolver", "WebBrowserClient", "split_url",
    "Email", "EmailGateway", "Mailbox",
    "Envelope", "EnvelopeChannel",
    "JS_ALLOW", "JS_BLOCK", "AuthorityFn", "ExportViolation", "Gateway",
    "GET", "POST", "HttpRequest", "HttpResponse", "contains_javascript",
    "error", "ok", "strip_javascript",
    "SESSION_COOKIE", "AuthError", "Session", "SessionManager",
]
