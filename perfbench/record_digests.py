"""Record the output digests that benchmark runs are checked against.

    python3 perfbench/record_digests.py --seeds 0-20

For every workload and run seed, makes the run's accuracy calls (calls
``0 .. calls-1``) at the benchmark's sizes and stores the SHA-256 of each
call's canonical output under its experiment seed in
``perfbench/digests.json``, merged with what the file already holds. Record
only from a commit whose outputs are known to be right: a later run whose
outputs differ from these by one bit counts a failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def record(names, size, seeds) -> dict:
    """``{workload: {experiment seed: digest}}`` for the given run seeds."""
    from workloads import WORKLOADS, digest, global_seed

    table: dict = {}
    for name in names:
        wl = WORKLOADS[name](size)
        wl.build()
        for seed in seeds:
            for i in range(wl.calls):
                table.setdefault(name, {})[str(global_seed(seed, i))] = digest(
                    wl.canonical(wl.call(seed, i))
                )
    return table


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-20")
    args = p.parse_args(argv)
    run.import_package()
    from workloads import WORKLOADS, Size

    recorded = record(sorted(WORKLOADS), Size(), args.seeds)
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for name, digests in recorded.items():
        table.setdefault(name, {}).update(digests)
        print(f"{name}: {len(table[name])} digests", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
