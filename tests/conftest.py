# ensures the tests directory is importable (for helpers.py)
from hypothesis import settings

# every property test runs the same examples on every run, with no time limit
settings.register_profile("planmds", deadline=None, derandomize=True, database=None)
settings.load_profile("planmds")
