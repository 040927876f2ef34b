"""Every invariant check of ``mdlasso verify``, run at full size.

``verify.CHECKS`` is the one home of the randomized property sweeps; each
entry is its own test item here, named after the check.
"""

import inspect

import pytest

from mdlasso import verify


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS],
                         ids=[name for name, _ in verify.CHECKS])
def test_check(check):
    check()


def test_every_check_registered_once():
    names = [name for name, _ in verify.CHECKS]
    assert len(set(names)) == len(names)
    defined = sorted(
        name for name, fn in inspect.getmembers(verify, inspect.isfunction)
        if name.startswith("check_") and fn.__module__ == verify.__name__)
    assert sorted(fn.__name__ for _, fn in verify.CHECKS) == defined
