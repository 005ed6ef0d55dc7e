"""coxloops: doubled loops over Coxeter groups, their automorphisms,
GF(2) graph cohomology, and amalgam classification — all by exhaustive
computation on explicit multiplication tables.

The pipeline: `coxeter` enumerates a finite Coxeter group from its diagram;
`loops` doubles any group into the loop M(G, 2) and checks every loop /
Moufang / doubling identity exhaustively; `morphisms` computes brute-force
automorphism groups and verifies the two structure theorems behind the
trichotomy of M(G, 2); `cohomology` computes H^1 of the diagram's edge
complex over GF(2) with explicit closed-form bases; `amalgams` builds the
standard and twisted amalgams of doubled parabolic loops and certifies,
by exhaustive isomorphism search, that the twists realize exactly
2^(cycle rank) isomorphism classes.
"""

from importlib import import_module

from .errors import *  # noqa: F401,F403  (each star import follows its module's __all__)
from .gf2 import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .groups import *  # noqa: F401,F403
from .coxeter import *  # noqa: F401,F403
from .loops import *  # noqa: F401,F403
from .morphisms import *  # noqa: F401,F403
from .cohomology import *  # noqa: F401,F403
from .amalgams import *  # noqa: F401,F403

__version__ = "0.1.0"

# every name a submodule exports, once each, in pipeline order
_SUBMODULES = ("errors", "gf2", "graphs", "groups", "coxeter", "loops", "morphisms", "cohomology", "amalgams")
__all__ = list(
    dict.fromkeys(name for m in _SUBMODULES for name in import_module(f".{m}", __name__).__all__)
) + ["__version__"]
