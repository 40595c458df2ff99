"""Records reference.json: the outputs of every run in each workload's timed
panel, which every benchmark run compares its panel with (see checks.py for
what is compared and at which tolerance).

    python3 perfbench/record_reference.py [WORKLOAD ...]

Record again only when a change is meant to alter the outputs, and say so.
"""

import json
import sys

import benchenv


def record(amtrl, name):
    from workloads import WORKLOADS
    wl = WORKLOADS[name](amtrl, 0)
    ref = {}
    try:
        for job in wl.panel:
            _, outcomes = wl.run(job)
            bad = [p for o in outcomes for p in o["problems"]]
            if bad:
                raise SystemExit(f"{name} {job}: the run fails its check: {bad}")
            if "row" in outcomes[0]:
                ref[wl.key(job)] = [o["row"] for o in outcomes]
            else:
                (o,) = outcomes
                ref[o["key"]] = {"ER": o["ER"], "support": o["support"]}
    finally:
        wl.close()
    return ref


def main(names):
    from checks import REFERENCE_PATH
    from workloads import WORKLOADS
    amtrl = benchenv.import_amtrl()
    try:
        with open(REFERENCE_PATH) as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    for name in names or sorted(WORKLOADS):
        refs[name] = record(amtrl, name)
        print(f"{name}: {len(refs[name])} entries recorded")
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
