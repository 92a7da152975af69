"""Delta sync across repeated journal compactions, counted, not timed.

A long-lived mirror whose providers compact between sync rounds must
keep tailing: each compaction keeps the journal epoch the link's
cursors were minted in, so only the first round of the session is a
full content-based reconciliation.
"""

from repro.federation import ProviderLink, converged
from repro.platform import Provider, ProviderConfig

ROUNDS = 60
#: Ten rounds journal about 4 KiB per side, so every
#: ``snapshot_incremental`` below compacts the journal it sees full.
COMPACT_BYTES = 2048
SNAPSHOT_EVERY = 10


def test_compactions_between_rounds_keep_delta_rounds():
    config = ProviderConfig(journal_compact_bytes=COMPACT_BYTES)
    a = Provider(name="w5-alpha", config=config)
    b = Provider(name="w5-beta", config=config)
    for side in (a, b):
        side.signup("bob", "pw")
    link = ProviderLink(a, b)
    link.link_account("bob")
    link.grant_sync("bob")
    for i in range(ROUNDS):
        a.store_user_data("bob", f"a{i}", f"from-a-{i}" * 8)
        b.store_user_data("bob", f"b{i}", f"from-b-{i}" * 8)
        assert link.sync_user("bob") == 2
        if (i + 1) % SNAPSHOT_EVERY == 0:
            a.snapshot_incremental()
            b.snapshot_incremental()
    for side in (a, b):
        assert side._durability.stats()["compactions"] >= 3
    stats = link.federation_stats()
    assert stats["full_recons"] == 1  # the first sync only
    assert stats["delta_rounds"] == ROUNDS - 1
    assert converged(link, "bob")
