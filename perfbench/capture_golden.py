"""Write the CLI workload's golden stdout files from the current checkout.

    python3 perfbench/capture_golden.py

Runs each invocation of ``workloads.CLI_INVOCATIONS`` once and stores
its stdout under ``perfbench/golden/<name>.stdout``; fails if an exit
code differs from the one the table expects.  Re-capture only when a
change to the CLI's output is intended.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)


def main() -> int:
    env = workloads.child_env(ROOT / "src")
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workloads.GOLDEN_DIR.mkdir(exist_ok=True)
        for name, args, want_exit in workloads.CLI_INVOCATIONS:
            code, out, _kb = workloads.run_child([sys.executable, "-m", "knot818", *args], tmp, env)
            if code != want_exit:
                print(f"{name}: exit {code}, expected {want_exit}", file=sys.stderr)
                return 1
            (workloads.GOLDEN_DIR / f"{name}.stdout").write_bytes(out)
            print(f"{name}: {len(out)} bytes")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
