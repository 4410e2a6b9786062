"""The beam-splitter setting that maximizes the log-negativity, in closed form.

The output spectrum depends on the splitter only through t, and for an input
with v > n the smaller symplectic eigenvalue is least at the balanced
splitter, so no search is needed: :func:`maximizing_splitter` returns the
optimum directly.  The tests hold it against a brute-force (t, phi) grid
search on the general 4x4 block algebra, which lives with them.
"""

from __future__ import annotations

import math

from .moments import BeamSplitterParams, CenteredMoments, _n_minus_v

#: Transmission amplitude of the balanced (50:50) splitter.
BALANCED_T = math.sqrt(0.5)


def maximizing_splitter(c: CenteredMoments) -> BeamSplitterParams:
    """The splitter setting that maximizes E_N: balanced if v > n or lam_minus < 1/2, else t = 0.

    (eta^-)^2 is phi-independent and, for v > n, smallest at t = 1/sqrt(2),
    where 2 (eta^-)^2 = l- = (n - v) + 1/2.  The maximum is therefore the
    entanglement potential E_N^max = max(0, -ln(1 + 2 (n - v)) / 2) of
    Asboth, Calsamiglia & Ritsch, PRL 94, 173602 (2005).  phi is 0.  A
    classical input entangles at no setting; it gets (t, phi) = (0, 0), the
    lowest t and phi, which is where a grid search that breaks ties that way
    lands too.
    """
    return BeamSplitterParams(BALANCED_T if _n_minus_v(c.v, c.n, c.lam_minus) < 0.0 else 0.0)
