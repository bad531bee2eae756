from hypothesis import settings

# Property tests run the same examples on every run and stay a few seconds
# long; the dense oracle they compare against is slow past a few hundred
# words.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=10, database=None
)
settings.load_profile("tier1")
