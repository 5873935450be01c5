from hypothesis import settings

# A longer search for the property tests that take their example count from
# the profile: ``pytest --hypothesis-profile deep``.  The default profile is
# Hypothesis's own.
settings.register_profile("deep", max_examples=2_000)
