#!/usr/bin/env python3
"""Reproduce the paper's evaluation figures (6-9) from the command line.

By default this runs the ``quick`` profile (a reduced sweep with the same shape as the
paper's); pass ``--profile paper`` for the full 100-run evaluation (this takes hours) or
``--figure N`` to run a single figure (``--all`` runs all four).  This is the
``repro-sweep`` command, also installed as ``repro-figures``.

Run with:  python examples/density_sweep.py --figure 6 --profile quick
"""

from __future__ import annotations

import sys

from repro.experiments.sweep_cli import main

if __name__ == "__main__":
    sys.exit(main())
