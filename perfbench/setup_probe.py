"""One fresh-interpreter set-up: import zdrd and build a workload's configs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

``run.py`` times this whole process to measure ``setup_s``.
"""

import sys

import workloads


def main(argv):
    workload, seed = argv[0], int(argv[1])
    workloads.load_zdrd()
    workloads.build_configs(workload, seed, workloads.FULL)


if __name__ == "__main__":
    main(sys.argv[1:])
