"""One ``setup_s`` probe: a fresh interpreter made ready for its first cell.

``run.py`` starts this script several times per run and takes the median
of their CPU seconds.  It imports what the workload's pass imports,
builds the config, creates fresh store/queue dirs, and exits.
"""

import argparse
from pathlib import Path

import workloads

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workloads.prepare(args.workload, args.seed, Path(args.workdir))
