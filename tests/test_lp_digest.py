"""Every ``solve`` output on ``tests/lp_digest.py``'s games stays byte for byte.

A change that skips or reorders LPs may move the digest's ``calls`` and
``lp``; its ``cli`` hash, over every exit code, stdout and stderr, must not
move.
"""

from lp_digest import digest

CLI_SHA256 = "a0b2a68cdbce8e36e32ed0ac94ffb48157741fff500134887409c0521c3792a0"


def test_solve_outputs_unchanged():
    assert digest()[3] == CLI_SHA256
