"""Set-up probe: run ``capseq generate`` until its first study starts.

Usage: ``python3 perfbench/setup_probe.py <src dir> <generate arguments...>``

The command loads its configuration, vocabularies, checkpoints and dataset
exactly as a user's run does. When it reaches the first study, the probe
prints ``ready`` and exits at once, so the parent process can time process
start to loaded state.
"""

import os
import sys

sys.path.insert(0, sys.argv[1])

import capseq.cli as cli  # noqa: E402


def _ready(*args, **kwargs):
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    os._exit(0)


cli.two_stage_generate = _ready
code = cli.main(sys.argv[2:])
sys.exit(f"setup probe: generate returned {code} before its first study")
