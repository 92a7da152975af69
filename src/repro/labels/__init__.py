"""DIFC label algebra: tags, labels, capabilities, and flow rules.

This package is the trusted computing base of the whole W5
reproduction; see DESIGN.md §5 for the normative semantics.
"""

from .cache import FlowCache
from .capabilities import Capability, CapabilitySet, minus, plus
from .errors import (CapabilityError, FlowViolation, IntegrityViolation,
                     LabelError, SecrecyViolation, TagError,
                     WriteIntegrityViolation, WriteSecrecyViolation)
from .flow import (can_flow, can_flow_integrity, can_flow_secrecy, can_read,
                   can_write, check_flow, check_label_change,
                   endpoint_label_legal, exportable_tags,
                   label_change_allowed, owns_all, reachable_secrecy_range,
                   tag_in_reach)
from .label import Label
from .serial import (capability_from_dict, capability_to_dict,
                     capset_from_dict, capset_to_dict, label_dict_memo,
                     label_from_dict, label_to_dict, tag_to_dict)
from .tags import INTEGRITY, SECRECY, Tag, TagRegistry

__all__ = [
    "Capability", "CapabilitySet", "minus", "plus",
    "CapabilityError", "FlowViolation", "IntegrityViolation",
    "LabelError", "SecrecyViolation", "TagError",
    "WriteIntegrityViolation", "WriteSecrecyViolation",
    "can_flow", "can_flow_integrity", "can_flow_secrecy",
    "can_read", "can_write",
    "check_flow", "check_label_change", "endpoint_label_legal",
    "exportable_tags", "label_change_allowed", "owns_all",
    "reachable_secrecy_range", "tag_in_reach",
    "FlowCache", "Label",
    "capability_from_dict", "capability_to_dict", "capset_from_dict",
    "capset_to_dict", "label_dict_memo", "label_from_dict", "label_to_dict",
    "tag_to_dict",
    "INTEGRITY", "SECRECY", "Tag", "TagRegistry",
]
