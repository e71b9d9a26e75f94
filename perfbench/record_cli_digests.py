"""Rewrite ``cli_digests.txt``, the byte-identical output contract of cli-gen-run.

Usage, from the repository root: python3 perfbench/record_cli_digests.py

Run it only when a change means to alter the CLI's JSON output; the
benchmark otherwise fails every unit whose output no longer matches.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import CLI_DIGESTS, cli_unit, digest  # noqa: E402

SEEDS = range(1024)


def main() -> int:
    workdir = HERE.parent / ".perfbench_out" / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    path = str(workdir / "record-instance.json")
    lines = ["# seed  sha256(gen --goods 8 --bids 12 --seed SEED)  sha256(run --mechanism greedy --norm-exponent 1/2)"]
    for seed in SEEDS:
        gen_code, run_code, written, printed = cli_unit(seed, path)
        if gen_code or run_code:
            print(f"seed {seed}: exit codes {gen_code}, {run_code}", file=sys.stderr)
            return 1
        lines.append(f"{seed} {digest(written)} {digest(printed)}")
    os.remove(path)
    CLI_DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
