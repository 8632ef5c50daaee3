"""Record the reference ``alpha_lb`` of every instance a run solves.

Usage (from the repository root)::

    python3 perfbench/record_reference.py --seeds 0-19

For each workload and seed it solves instances ``0 .. solved-1`` (moments
and cutting plane) and stores their ``alpha_lb`` in
``perfbench/reference.json``, keeping entries for other seeds.  ``run.py``
then checks each instance against its entry; a seed without one skips only
that check.  Re-record only when a change is meant to move ``alpha_lb``.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="inclusive range LO-HI of workload seeds")
    parser.add_argument("--workload", action="append",
                        help="workload to record (repeatable; default all)")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    ts = run.import_teamsolve()
    if ts is None:
        return 2
    import spans
    import workloads

    with open(run.REFERENCE) as f:
        doc = json.load(f)
    for name in args.workload or workloads.WORKLOADS:
        table = doc.setdefault(name, {})
        for seed in range(lo, hi + 1):
            values = []
            for j in range(workloads.WORKLOADS[name].solved):
                _, rec, bad = run.operation(
                    ts, workloads.build(name, seed, j),
                    spans.Tracer("reference"), False, None, None)
                if bad:
                    raise SystemExit("%s seed %d instance %d: %s"
                                     % (name, seed, j, "; ".join(bad)))
                values.append(rec["alpha_lb"])
            table[str(seed)] = values
            print(name, seed, values, flush=True)
            with open(run.REFERENCE, "w") as f:
                json.dump(doc, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
