"""Byte identity of every written file against digests from an earlier
commit; see golden_bytes.py for the cases and how to regenerate them."""
import json

import pytest

import golden_bytes


@pytest.mark.parametrize("case", sorted(golden_bytes.CASES))
def test_digests_match_golden(case, tmp_path):
    expected = json.loads(golden_bytes.GOLDEN.read_text())[case]
    assert golden_bytes.digests_in_child(case, tmp_path) == expected
