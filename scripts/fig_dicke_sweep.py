#!/usr/bin/env python3
"""Superradiance experiment: ground-state field nonclassicality across g_c.

Runs the full-scale sweep (80 atoms, 142 field levels, 101 couplings) for
the excitation-conserving Hamiltonian and twice for its counter-rotating
variant, writing one CSV each:

- ``corotating``: the conserving model keeps <a^2> = 0 in nondegenerate
  eigenstates, which its excitation-block solver returns exactly, so its
  measure reads 0.
- ``counter``: the counter-rotating ground state of definite parity.  Above
  g_c its parity doublet is degenerate, and a parity eigenstate carries no
  <a>, so E_N reads 0 on most flagged rows.
- ``counter_mixed``: the same sweep with --mix-degenerate, which returns the
  symmetry-broken (psi_even + psi_odd) / sqrt(2) on flagged rows.  This is
  the curve that carries the jump of the measure at g_c.

The full-scale run takes about 10 s on 2 cores of an AMD EPYC machine,
nearly all of it the two counter-rotating sweeps, whose parity sectors go
to Lanczos.  Use --quick
for a desk-scale version (8 atoms, 40 levels) that finishes in seconds.
"""

import argparse
import sys

from nonclassicality.cli import main as cli_main

SWEEPS = (
    ([], "corotating"),
    (["--counter-rotating"], "counter"),
    (["--counter-rotating", "--mix-degenerate"], "counter_mixed"),
)

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-prefix", default="dicke_sweep")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    n_atoms, fock_dim, steps = ("8", "40", "21") if args.quick else ("80", "142", "101")
    status = 0
    for extra, tag in SWEEPS:
        code = cli_main(
            [
                "dicke-sweep",
                "--n-atoms", n_atoms,
                "--fock-dim", fock_dim,
                "--g-min", "0",
                "--g-max", "2",
                "--steps", steps,
                "--output", f"{args.output_prefix}_{tag}.csv",
            ]
            + extra
        )
        status = max(status, code)
    sys.exit(status)
