import hypothesis

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None, derandomize=True
)
# A longer run of the property tests: pytest --hypothesis-profile=ci
hypothesis.settings.register_profile(
    "ci", max_examples=1000, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")
