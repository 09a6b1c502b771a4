#!/usr/bin/env python3
"""Record the body digest of every workload at seeds 0..39 into digests.json.

    python3 perfbench/pin_digests.py

Run once on the commit whose outputs become the reference.  Each body is
produced exactly as the benchmark produces it (a `python -m collapse_lab`
subprocess) and must pass the theory checks before its digest is kept.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(40)


def main() -> int:
    pinned: dict[str, dict[str, str]] = {}
    for w in run.WORKLOADS.values():
        pinned[w.name] = {}
        for seed in SEEDS:
            res = run.run_child(["-m", "collapse_lab", *w.command(seed)])
            problems = run.check_output(w, res.stdout, res.stderr) if res.status == 0 else [
                f"exit status {res.status}: {res.stderr.strip()[-300:]}"
            ]
            if problems:
                print(f"{w.name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            pinned[w.name][str(seed)] = run.digest(res.stdout)
        print(f"{w.name}: {len(SEEDS)} seeds pinned", file=sys.stderr)
    (run.HERE / "digests.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
