"""The package's numbers against their committed record (numbers_record.py).

A change that moves a number fails here until the record is rewritten
with it, so each moved entry is named in review.
"""

import numbers_record


def test_numbers_match_the_committed_record():
    stored = numbers_record.read()
    same_platform = all(stored[k] == v for k, v in numbers_record.header().items())
    ulps = 0 if same_platform else numbers_record.ULPS
    assert len(stored["entries"]) >= 150
    assert numbers_record.differences(stored["entries"], numbers_record.entries(),
                                      ulps) == []
