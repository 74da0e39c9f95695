"""Every pinned ``dstab check`` report and experiment tally, byte for byte
(see ``report_digests.py``)."""

import json

import report_digests


def test_reports_match_their_digests():
    want = json.loads(report_digests.GOLDEN.read_text())
    got = report_digests.compute()
    for part in ("check", "experiment"):
        moved = sorted(key for key in want[part].keys() | got[part].keys()
                       if want[part].get(key) != got[part].get(key))
        assert not moved, f"{len(moved)} {part} digests moved: {moved[:10]}"
