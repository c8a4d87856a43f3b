#!/usr/bin/env python3
"""Regenerate the pinned input network of the pendulum workload.

Trains the pendulum preset at its desk budget (shipped seed, 1500 Adam
epochs) through the command line and stores the resulting ``network.json``
as ``perfbench/inputs/pendulum_desk_net.json``.  The benchmark certifies
this stored network instead of a freshly trained one, so a change to the
training numerics cannot shift the certification work through K or the
subinterval count.  Takes about half a minute on a 2-core x86 host.

    python3 perfbench/make_inputs.py
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pinncert.cli import main as cli  # noqa: E402

PINNED_NET = HERE / "inputs" / "pendulum_desk_net.json"


def main():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        code = cli(["train", "--preset", "pendulum", "--out", tmp])
        if code != 0:
            return code
        PINNED_NET.parent.mkdir(exist_ok=True)
        shutil.copyfile(Path(tmp) / "network.json", PINNED_NET)
    print(f"pinned network written to {PINNED_NET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
