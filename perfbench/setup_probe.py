"""One set-up as a user pays it: a fresh interpreter imports hardtorus,
parses a config file and samples its initial state.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG

run.py times this whole process from start to exit.
"""
import sys
from pathlib import Path

import hardtorus

if __name__ == "__main__":
    config = hardtorus.parse_config(
        Path(sys.argv[1]).read_text(encoding="utf-8"))
    hardtorus.sample_state(config.seed, config.params)
