"""Hypothesis settings for continuous integration.

GitHub Actions sets ``CI``; there every property runs derandomized and a
failure prints the blob that replays it, so a failure seen in CI
reproduces locally (``CI=1 python -m pytest ...``).  Local runs keep
Hypothesis's default profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
