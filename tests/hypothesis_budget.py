"""Hypothesis example budgets that scale with the loaded profile.

Explicit ``max_examples`` in ``@settings`` overrides any profile, so a
test that wants more examples under the ``weekly`` profile (10x the
``repro`` default, ``pytest --hypothesis-profile=weekly``) asks for
``examples(n)`` instead of a bare ``n``.
"""

from hypothesis import settings


def examples(n: int) -> int:
    """``n`` under the ``repro`` profile, scaled with the loaded one."""
    return n * settings.default.max_examples // settings.get_profile(
        "repro"
    ).max_examples
