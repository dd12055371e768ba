"""What a CLI user pays before the first op, run in a fresh interpreter.

Imports ``bagcell.cli`` and loads one workload's inputs, then runs the
host-speed probe and prints its median time and the seconds it took. The
benchmark times this whole process from outside, takes the probe's seconds
off and scales the rest by the probe to get ``setup_s``. The probe runs in
this process because the interpreter that starts up may not run on the CPU,
or at the speed, of the process that times it.

Usage: python3 perfbench/setup_probe.py replay|sweep|eval [PREDS GTS]
"""

import sys
import time

import checkout


def main(argv):
    checkout.use_checkout_src()
    import bagcell.cli  # noqa: F401  (the import is what is measured)
    from bagcell import scenarios, vision
    from bagcell.config import CellConfig

    workload = argv[0] if argv else ""
    if workload == "replay":
        CellConfig().validate()
        scenarios.build_reference_script()
    elif workload == "sweep":
        config = CellConfig()
        config.faults = scenarios.randomized_fault_profile()
        config.validate()
    elif workload == "eval" and len(argv) == 3:
        vision.load_boxes(argv[1])
        vision.load_boxes(argv[2])
    else:
        raise SystemExit(__doc__)
    t0 = time.perf_counter()
    import hostspeed

    probe = hostspeed.probe_s(0.0)
    print(probe, time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1:])
