"""The W5 reference monitor: processes, endpoints, IPC, audit."""

from .audit import AuditEvent, AuditLog
from .errors import (DeadProcess, EndpointMisuse, KernelError, MailboxEmpty,
                     NoSuchEndpoint, NoSuchProcess, ResourceExhausted)
from .ipc import Message
from .kernel import PLANES, Kernel, ResourceHook
from .pool import ProcessPool
from .process import BOTH, RECV, SEND, Endpoint, Process
from .syscalls import W5Syscalls

__all__ = [
    "AuditEvent", "AuditLog",
    "DeadProcess", "EndpointMisuse", "KernelError", "MailboxEmpty",
    "NoSuchEndpoint", "NoSuchProcess", "ResourceExhausted",
    "Message", "PLANES", "Kernel", "ProcessPool", "ResourceHook",
    "BOTH", "RECV", "SEND", "Endpoint", "Process", "W5Syscalls",
]
