"""Shared test configuration: the Hypothesis profiles.

``deep`` runs ten times Hypothesis's default 100 examples.  Tests that
pin their own ``max_examples`` keep it; the plane state machine
(``tests/platform/test_plane_machine.py``) and the federation
differential (``tests/federation/test_delta_differential.py``) scale
with the active profile, so ``--hypothesis-profile=deep`` gives them
ten times the histories.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000)
