"""Write plot_digests.json: SHA-256 of every plot portrait of the digest seed.

    python3 bench/make_digests.py

The committed digests freeze the portrait byte contract; the plot workload
counts a portrait that differs from its digest as a failed op.  Regenerate
them only when that contract is changed on purpose.
"""

import hashlib
import json
import os
import sys

import run

run.import_program()

import workloads as wl  # noqa: E402


def main() -> int:
    work_dir = run.ROOT / "bench" / "_work"
    work_dir.mkdir(exist_ok=True)
    # as in run.py: no ./ellipse-phase.json flag defaults reach the CLI
    os.chdir(work_dir)
    plot = wl.PlotWorkload(wl.DIGEST_SEED, work_dir)
    plot.prepare()
    digests = []
    for op in plot.ops:
        rc, _, err = wl.run_cli(plot.argv(op))
        if rc != 0:
            sys.exit(f"plot {op.index} exited {rc}: {err}")
        digests.append(hashlib.sha256(plot.out_path.read_bytes()).hexdigest())
    plot.out_path.unlink()
    os.chdir(run.ROOT)
    work_dir.rmdir()
    obj = {"seed": wl.DIGEST_SEED, "resolution": list(wl.PLOT_PX), "sha256": digests}
    wl.DIGESTS_PATH.write_text(json.dumps(obj, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
