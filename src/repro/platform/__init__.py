"""The W5 meta-application: provider, accounts, registries, app launch."""

from .accounts import UserAccount
from .config import ProviderConfig
from .context import AppContext, AppHandler
from .debug import CrashReport, DebugService
from .endorsement import EndorsementService
from .errors import (AppCrashed, BaseMismatch, NoSuchApp, NoSuchUser,
                     NotAuthorized, PlatformError)
from .durability import DurabilityManager, recover_provider
from .groups import GroupService, GroupSpace
from .inspect import Explanation, PolicyInspector
from .persist import restore_provider, set_password, snapshot_provider
from .plans import PlanCache, RequestPlan
from .provider import Provider
from .registry import APP, DECLASSIFIER, MODULE, AppModule, Registry
from .shards import MergedAuditView, ShardedProvider, ShardMap

__all__ = [
    "UserAccount",
    "ProviderConfig",
    "PlanCache", "RequestPlan",
    "AppContext", "AppHandler",
    "CrashReport", "DebugService", "EndorsementService",
    "AppCrashed", "BaseMismatch", "NoSuchApp", "NoSuchUser",
    "NotAuthorized", "PlatformError",
    "DurabilityManager", "recover_provider",
    "GroupService", "GroupSpace",
    "Explanation", "PolicyInspector",
    "restore_provider", "set_password", "snapshot_provider",
    "Provider",
    "APP", "DECLASSIFIER", "MODULE", "AppModule", "Registry",
    "MergedAuditView", "ShardedProvider", "ShardMap",
]
