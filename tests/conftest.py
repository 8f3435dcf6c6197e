"""One hypothesis profile for every property test in the suite.

``derandomize`` makes each run draw the same examples, ``deadline=None``
keeps a slow machine from turning a pass into a flaky failure, and
``print_blob`` prints the blob that replays a failing example with
``@reproduce_failure``, so every property failure can be replayed from
its report alone.
"""

from hypothesis import settings

settings.register_profile("biquat", derandomize=True, deadline=None,
                          print_blob=True)
settings.load_profile("biquat")
