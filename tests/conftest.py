from hypothesis import settings

# Property tests draw the same examples on every run, so a failure in CI
# reproduces locally; walks can take longer than the default deadline.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
