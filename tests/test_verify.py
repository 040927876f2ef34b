"""Every invariant check of ``mdlasso verify``, run at full size.

``verify.CHECKS`` is the one home of the randomized property sweeps; each
entry is its own test item here, named after the check.
"""

import pytest

from mdlasso import verify


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS],
                         ids=[name for name, _ in verify.CHECKS])
def test_check(check):
    check()
