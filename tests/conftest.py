"""Hypothesis profiles for the tier-1 suite.

``HYPOTHESIS_PROFILE=ci`` runs every property test that does not pin
its own ``max_examples`` (the canonical-encoder reference checks, for
one) at 1 000 examples; locally they keep Hypothesis's default.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
