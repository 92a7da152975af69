#!/usr/bin/env python3
"""Durability: a provider crash and cold restart, labels intact.

Builds a live deployment, snapshots it to JSON (the cold-storage
path), "crashes", restores into a brand-new process with the app
catalog reinstalled, and shows that:

* users' data and policies came back exactly;
* every access decision after the restart matches the one before;
* sessions did NOT survive (users re-authenticate, by design);
* non-serializable custom declassifier grants are reported, not
  silently dropped.

Then it crashes *again* — this time mid-write, with post-checkpoint
mutations living only in the write-ahead journal, which the operator's
incremental snapshot hands out as a delta — and shows that recovery is
base snapshot + replay: the torn tail is detected and dropped, every
complete record is replayed, and nothing before the tear is lost.
Finally, a user whose account predates each restart deletes it on the
rebuilt provider: the right to leave survives both.

Run: ``python examples/provider_restart.py``
"""

import json

from repro.apps import STANDARD_CATALOG, install_standard_apps
from repro.declassify import ViewerPredicate
from repro.errors import W5Error
from repro.net import ExternalClient
from repro.platform import (Provider, recover_provider, restore_provider,
                            set_password, snapshot_provider)


def main() -> None:
    print("== day 1: a live provider ==")
    p1 = Provider(name="prod")
    install_standard_apps(p1)
    for name in ("bob", "amy"):
        p1.signup(name, "pw")
        p1.enable_app(name, "blog")
    p1.grant_builtin_declassifier("bob", "friends-only",
                                  {"friends": ["amy"]})
    p1.grant_builtin_declassifier("amy", "friends-only",
                                  {"friends": ["bob"]})
    p1.grant_declassifier("bob", ViewerPredicate(
        {"predicate": lambda o, v, a: v == "amy"}))  # not serializable
    bob = ExternalClient("bob", p1.transport())
    bob.login("pw")
    bob.get("/app/blog/post", title="t", body="written before the crash")
    p1.store_user_data("bob", "diary.txt", "dear diary")
    print("   2 users, 1 post, 1 file, 3 declassifier grants")

    print("== snapshot to JSON ==")
    blob = json.dumps(snapshot_provider(p1))
    print(f"   snapshot size: {len(blob):,} bytes")

    print("== crash. cold restart on a new machine ==")
    p2, report = restore_provider(json.loads(blob),
                                  app_catalog=STANDARD_CATALOG)
    print(f"   unrestored grants: {report['unrestored_grants']}")
    print(f"   missing apps:      {report['missing_apps'] or 'none'}")

    print("== old sessions are dead ==")
    stale = ExternalClient("bob", p2.transport())
    stale.cookies.update(bob.cookies)
    r = stale.get("/app/blog/read", title="t")
    print(f"   request with the pre-crash cookie: "
          f"anonymous view -> {r.status}")

    print("== users reset passwords and everything is back ==")
    for name in ("bob", "amy"):
        set_password(p2, name, "new-pw")
    amy = ExternalClient("amy", p2.transport())
    amy.login("new-pw")
    r = amy.get("/app/blog/read", author="bob", title="t")
    print(f"   amy reads bob's restored post: {r.body['body']!r}")
    print(f"   bob's diary: {p2.read_user_data('bob', 'diary.txt')!r}")

    print("== and the walls are still up ==")
    p2.signup("eve", "pw")
    p2.enable_app("eve", "blog")
    eve = ExternalClient("eve", p2.transport())
    eve.login("pw")
    r = eve.get("/app/blog/read", author="bob", title="t")
    print(f"   eve tries bob's post: HTTP {r.status}")

    print("\nOK: full restart with labels, policies, and data intact.")

    print("\n== day 2: writes land in the journal, not in snapshots ==")
    # The operator holds the snapshot p2 was restored from, so it is
    # the base of p2's journal: every durable mutation since appends
    # one checksummed JSON line, and the operator's first incremental
    # snapshot is already that journal, a delta.
    amy.get("/app/blog/post", title="day2", body="journaled, not lost")
    p2.store_user_data("amy", "notes.txt", "replay me")
    delta = p2.snapshot_incremental()
    raw = delta["journal"].encode("ascii")
    print(f"   {delta['kind']} snapshot: {delta['journal_seq']} records, "
          f"{len(raw):,} bytes since the checkpoint")

    print("== crash MID-WRITE: the last record is torn ==")
    torn = raw[:-7]  # power fails 7 bytes before the append completes
    p3, rep = recover_provider(json.loads(blob), torn,
                               app_catalog=STANDARD_CATALOG)
    print(f"   replayed {rep['records_replayed']} records, dropped "
          f"{rep['truncated_bytes']} tail bytes "
          f"({rep['truncation_reason']})")
    set_password(p3, "amy", "pw3")
    amy3 = ExternalClient("amy", p3.transport())
    amy3.login("pw3")
    r = amy3.get("/app/blog/read", title="day2")
    print(f"   amy's day-2 post survived the tear: {r.body['body']!r}")
    try:
        p3.read_user_data("amy", "notes.txt")
    except W5Error:
        print("   the torn write itself is gone (as a crash demands)")

    print("== same crash, but the append had finished ==")
    p4, rep = recover_provider(json.loads(blob), raw,
                               app_catalog=STANDARD_CATALOG)
    print(f"   replayed {rep['records_replayed']} records, dropped "
          f"{rep['truncated_bytes']} bytes")
    print(f"   amy's notes: {p4.read_user_data('amy', 'notes.txt')!r}")

    print("\nOK: base + replay recovers to the last complete record.")

    print("\n== the right to leave, after both restarts ==")
    # both accounts predate the restart that rebuilt their provider
    for kind, p, name in (("restored", p2, "bob"), ("recovered", p4, "amy")):
        erased = p.delete_account(name)
        print(f"   {name} leaves the {kind} provider: erased {erased}, "
              f"users left {p.usernames()}")

    print("\nOK: accounts made before a restart can still be deleted.")


if __name__ == "__main__":
    main()
