"""Shared test configuration.

Hypothesis deadlines are disabled globally: several property tests drive
whole cycle-exact simulations whose wall-clock time varies widely across
machines, and flaky deadline failures are worse than slow tests.

``repro`` is the default profile.  ``weekly`` draws 10x the examples
(``pytest --hypothesis-profile=weekly``); tests with an explicit budget
scale it through :func:`tests.hypothesis_budget.examples`.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "weekly",
    parent=settings.get_profile("repro"),
    max_examples=10 * settings.get_profile("repro").max_examples,
)
settings.load_profile("repro")
