"""Shared test settings.

Property tests run under one registered hypothesis profile: derandomized,
so every run draws the same examples, with no deadline (a first solve pays
for imports) and a bounded number of examples.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("ldpopt", derandomize=True, deadline=None,
                              max_examples=200, database=None)
    settings.load_profile("ldpopt")
