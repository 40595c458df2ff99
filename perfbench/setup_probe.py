"""Times one set-up of a workload in a fresh process: importing amtrl,
building the workload's instance and solving its reference mixtures. Then
times the reference computation (calibrate.py) in the same process and
prints the set-up seconds and the factor that scales them to the
reference speed.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import benchenv

CALIBRATION_SAMPLES = 7

if __name__ == "__main__":
    t0 = time.perf_counter()
    amtrl = benchenv.import_amtrl()
    from workloads import WORKLOADS
    WORKLOADS[sys.argv[1]](amtrl, int(sys.argv[2])).close()
    seconds = time.perf_counter() - t0
    import calibrate
    factor = calibrate.scale([calibrate.sample()
                              for _ in range(CALIBRATION_SAMPLES)])
    print(seconds, factor)
