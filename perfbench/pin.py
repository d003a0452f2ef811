"""Regenerate ``pins.json``: the result digest of every workload at every
input slot, computed on the object kernel.

Usage (from the repository root)::

    python3 perfbench/pin.py

Pinning on the object kernel while the benchmark runs the SoA engine makes
every benchmark run re-check that both engines give identical tables.
Re-pin only when a change to the program is meant to change its results.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
PINS = os.path.join(HERE, "pins.json")


def main() -> None:
    from workloads import (
        PIN_SLOTS,
        WORKLOADS,
        digest,
        prepare_environment,
        run_campaigns,
    )

    prepare_environment(engine="object")
    pins = {}
    scratch = os.path.join(HERE, "out")
    os.makedirs(scratch, exist_ok=True)
    for name in WORKLOADS:
        slots = {}
        for slot in range(PIN_SLOTS):
            slots[str(slot)] = digest(
                run_campaigns(WORKLOADS[name], slot, scratch))
            print(name, slot, slots[str(slot)], flush=True)
        pins[name] = slots
    with open(PINS, "w", encoding="utf-8") as stream:
        json.dump(pins, stream, indent=1, sort_keys=True)
        stream.write("\n")


if __name__ == "__main__":
    main()
