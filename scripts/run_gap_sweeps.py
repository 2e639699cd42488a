#!/usr/bin/env python3
"""Reproduce the three gap-vs-K panels as plot-ready CSV files.

For each panel (full refreshment, partial refreshment, mini-batch noise)
this runs the exact closed-form sweep, the power-law extrapolation, and
optionally a sampled sweep, concatenating all rows into one CSV per panel.
Slope fits against the predicted 2c - 1 rates are printed at the end.
"""

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from dais import (ExperimentConfig, fit_loglog_slope, gen_blr_data, run_sweep, theory_slope,
                  tune_stepsize_base, write_csv)

PANELS = {
    "full_refresh": "sweep_full_refresh.toml",
    "partial_refresh": "sweep_partial_refresh.toml",
    "minibatch": "sweep_minibatch.toml",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="directory for the CSV files")
    parser.add_argument("--with-mc", action="store_true",
                        help="add sampled rows (the config's mc_chains per cell, 100 by default; slower)")
    args = parser.parse_args(argv)

    here = Path(__file__).parent
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create --out-dir {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    if not os.access(out_dir, os.W_OK):
        print(f"cannot write to --out-dir {out_dir}: not writable", file=sys.stderr)
        return 2

    for panel, cfg_name in PANELS.items():
        base = ExperimentConfig.from_file(here / cfg_name)
        if base.a is None:
            # tune once for the panel's three sweeps, as run_sweep would each time
            model = gen_blr_data(base.n, base.d, base.seed, sigma2=base.sigma2)
            base = replace(base, a=tune_stepsize_base(model, base.gamma, base.K_grid[0], base.c_list))
        rows = run_sweep(base)
        modes = {"exact": rows}
        modes["theory"] = run_sweep(replace(base, mode="theory"))
        if args.with_mc:
            modes["mc"] = run_sweep(replace(base, mode="mc"))

        all_rows = [row for mode_rows in modes.values() for row in mode_rows]
        out_path = out_dir / f"{panel}.csv"
        write_csv(all_rows, out_path)
        print(f"[{panel}] wrote {len(all_rows)} rows to {out_path}")
        for c in base.c_list:
            curve = [r for r in modes["exact"] if r.c == c]
            try:
                slope, _, r2 = fit_loglog_slope(curve)
            except ValueError:
                print(f"  c={c:.4f}: no usable rows")
                continue
            note = ""
            if panel == "full_refresh":
                # the 2c - 1 rate applies to clean gradients at gamma = 0
                note = f" (predicted {theory_slope(c):+.4f})"
            print(f"  c={c:.4f}: fitted slope {slope:+.4f}{note} r2={r2:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
