"""Write ``reference.json``: lower-bound rates of every benchmark grid point.

    python3 perfbench/make_reference.py

Rates come straight from ``zdrd.nrdf`` at the reference seed.  Regenerate
only when the solver's answer is meant to change, and say why in the
commit that does.
"""

import json

import gate
import workloads


def main():
    zdrd = workloads.load_zdrd()
    doc = {"seed": workloads.REFERENCE_SEED}
    for workload in workloads.WORKLOADS:
        configs = workloads.build_configs(workload, workloads.REFERENCE_SEED, workloads.FULL)
        doc[workload] = {
            name: [[d, zdrd.nrdf(config.source, d).rate_bits] for d in config.d_grid]
            for name, config, _ in configs
        }
    with open(gate.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
