"""Platform benchmark: workloads, oracle and tracing (see README.md)."""

import os
import sys

#: String hashing is randomised per interpreter unless PYTHONHASHSEED is
#: set, and the simulator's outcome depends on it: a crashed machine
#: withdraws its prefixes by iterating a set of strings
#: (``MachineBGPSpeaker.withdraw_all``), so zone-churn's digest would
#: change from one process to the next. The benchmark pins it.
HASH_SEED = "0"


def pin_hash_seed(script: str) -> None:
    """Re-execute ``script`` with PYTHONHASHSEED pinned, unless it is."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
