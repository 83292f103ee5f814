"""Set-up phase of one operation, in a fresh process.

    PYTHONPATH=src python3 perfbench/setup_probe.py SCENARIO

SCENARIO is a built-in name or a scenario file.  The probe imports dvocsim,
loads the scenario through the public functions and constructs the first
Simulation (the first compile), then exits without stepping.  The caller
times the process from launch to exit.
"""

import os
import sys


def main(ref):
    import dvocsim
    if os.path.exists(ref):
        scenario = dvocsim.parse_scenario(ref)
    else:
        scenario = dvocsim.builtin_scenario(ref)
    dvocsim.Simulation(scenario)


if __name__ == "__main__":
    main(sys.argv[1])
