"""Exact cochain operads on finite poset nerves and their deformations.

The package is organized bottom-up:

* ``scalars``    exact rationals and truncated power series (Witt units
                 are the series with constant term 1)
* ``posets``     finite posets, chain and interval enumeration
* ``linalg``     sparse exact elimination: rank, kernel, solves, class bases
* ``opcore``     operad operations over any carrier (compose_into,
                 compose_at, identity, mult) and all Koszul signs
* ``simplicial`` the one cochain type and its arithmetic, the simplicial
                 carrier, nerve cohomology
* ``hochschild`` incidence algebra; the relative Hochschild carrier (the
                 same cochains, composed in kP) and the full one (the
                 same cochain type, keyed by argument and output intervals)
* ``suites``     randomized exact verification suites, one registry
* ``gsiso``      the isomorphism phi between the two operads, the "iso" suite
* ``deform``     Maurer-Cartan elements, Witt cocycles, gauge, moduli
* ``cli``        command line interface over the whole stack

Everything is computed exactly over Q; there is no floating point in the
package at all.
"""

__version__ = "0.1.0"

from .posets import Poset, chain_poset, crown_poset, diamond_poset, sphere_poset
from .simplicial import SimpCochain, SimplicialCarrier, cohomology_dims
from .hochschild import (
    FullHochschildCarrier,
    IncElem,
    RelHochschildCarrier,
    hh_dims,
)
from .opcore import brace, bracket, circle, differential, dot, gamma

# suites before gsiso: suites registers gsiso's verify_morphism as its
# "iso" suite, and gsiso builds that suite on the helpers in suites
from .suites import SUITES
from .gsiso import phi, verify_morphism
from .deform import MCElement, WittCochain, gauge_equivalent, mc_check, moduli, to_witt
from .scalars import TruncSeries

__all__ = [
    "Poset",
    "chain_poset",
    "crown_poset",
    "diamond_poset",
    "sphere_poset",
    "SimpCochain",
    "SimplicialCarrier",
    "cohomology_dims",
    "IncElem",
    "RelHochschildCarrier",
    "FullHochschildCarrier",
    "hh_dims",
    "gamma",
    "brace",
    "circle",
    "dot",
    "differential",
    "bracket",
    "phi",
    "verify_morphism",
    "SUITES",
    "MCElement",
    "WittCochain",
    "mc_check",
    "to_witt",
    "gauge_equivalent",
    "moduli",
    "TruncSeries",
    "__version__",
]
