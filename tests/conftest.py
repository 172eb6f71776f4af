from hypothesis import settings

# one fixed example set per property, so that a failure reproduces on
# every run
settings.register_profile("levelnerve", max_examples=150, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("levelnerve")
