"""Set-up probe: import the program, build one workload's working set,
print ``ready`` and exit.  ``setup_s`` times this from the spawn.

    python3 perfbench/probe.py {sweep,reduce}
"""

import sys

from working_sets import BUILDERS

if __name__ == "__main__":
    BUILDERS[sys.argv[1]]()
    print("ready", flush=True)
