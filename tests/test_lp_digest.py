"""Every ``solve`` output on ``tests/lp_digest.py``'s games stays byte for byte.

A change that skips or reorders LPs may move the digest's ``calls`` and
``lp``; its ``cli`` hash, over every exit code, stdout and stderr, must not
move. Nor may any LP kind's call count rise above its ceiling, so a change
that adds LPs of one kind fails by that kind's name.
"""

import pytest

from lp_digest import digest

CLI_SHA256 = "a0b2a68cdbce8e36e32ed0ac94ffb48157741fff500134887409c0521c3792a0"

# calls per LP kind in the digest's line once apx finished only its winning
# subgame and the parent prefix's point came before the prefilter
CEILINGS = {
    "_attainment": 212,
    "_emptiness": 1078,
    "_find_apx": 51,
    "_max_min": 383,
    "_profile_lp": 1126,
    "_strict_eps_lp": 1737,
}


@pytest.fixture(scope="module")
def digested():
    return digest()


def test_solve_outputs_unchanged(digested):
    assert digested[3] == CLI_SHA256


@pytest.mark.parametrize("kind", sorted(CEILINGS))
def test_lp_calls_within_ceiling(digested, kind):
    assert digested[1][kind] <= CEILINGS[kind]


def test_no_lp_kind_without_ceiling(digested):
    assert set(digested[1]) <= set(CEILINGS)
