"""Set-up of a fresh process: import fellerlab, then build the grid, times,
spec and renormalization constants of each config given on the command line.
``run.py`` times this script as ``setup_s``."""

import sys

from fellerlab import cli
from fellerlab.storage import load_config

for path in sys.argv[1:]:
    cfg = load_config(path)
    grid = cli.build_grid(cfg)
    dt, _, _ = cli.build_times(cfg)
    cli.attach_renorm(cli.build_spec(cfg), grid, dt, cfg)
