"""Recompute the benchmark's reference outputs and show what changed.

Usage, from the root of a checkout:

    python3 bench/golden.py            # compare with golden/golden.json
    python3 bench/golden.py --write    # also replace it, after printing the changes

References are exact-result digests (figures, battery, joint lattices),
sampler accumulator digests at the pinned seeds, and CLI stdout. They are
recorded with the commit that produced them. Exits 1 when anything differs
and --write was not given.
"""
from __future__ import annotations

import argparse
import difflib
import json
import subprocess
import sys

from workloads import BENCH_DIR, GOLDEN_PATH, WORKLOADS, child_env

CHECKOUT = BENCH_DIR.parent


class _Ctx:
    checkout = CHECKOUT
    env = child_env(CHECKOUT)
    traced = False
    child_peak_kb = 0


def current_commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=CHECKOUT)
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def describe(workload, key, old, new) -> list:
    if old is None:
        return [f"  + {workload} / {key}"]
    if new is None:
        return [f"  - {workload} / {key}"]
    if "\n" in old or "\n" in new:  # CLI stdout: show the lines that changed
        diff = difflib.unified_diff(old.splitlines(), new.splitlines(), "golden", "now", lineterm="", n=1)
        return [f"  ~ {workload} / {key}"] + ["      " + line for line in list(diff)[:40]]
    return [f"  ~ {workload} / {key}: {old[:16]}... -> {new[:16]}..."]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="replace golden.json if anything changed")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(CHECKOUT / "src"))
    import boltzgas

    new = {name: workload.references(boltzgas, _Ctx()) for name, workload in WORKLOADS.items()}
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            old_file = json.load(handle)
    except FileNotFoundError:
        old_file = {"commit": None, "workloads": {}}
    old = old_file["workloads"]

    lines = []
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name, {}), new.get(name, {})
        for key in sorted(set(before) | set(after)):
            if before.get(key) != after.get(key):
                lines.extend(describe(name, key, before.get(key), after.get(key)))
    count = sum(len(v) for v in new.values())
    print(f"golden.json recorded at commit {old_file['commit']}; now at {current_commit()}")
    print("\n".join(lines) if lines else f"no change in {count} references")

    if args.write and lines:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump({"commit": current_commit(), "workloads": new}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN_PATH.relative_to(CHECKOUT)}")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
