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
by GF(2) elimination over the edge assignments of an isomorphism, that
the twists realize exactly 2^(cycle rank) isomorphism classes.

Importing the package runs none of these layers.  Each is registered in
`sys.modules` with `importlib.util.LazyLoader`, and its body runs when
something first reaches into it; its own imports load its dependencies
then.  So a CLI command runs only the layers it uses.  The exports (every
name in a layer's `__all__`) and `__all__` itself are bound on first use
(PEP 562), which runs every layer.
"""

import os
import sys
from importlib.util import LazyLoader, module_from_spec, spec_from_file_location

__version__ = "0.1.0"

# the layers, in pipeline order; each is also the package attribute of its
# name, but for those named like an export of theirs: `coxloops.cohomology`
# is the function, as a star import of the layers made it
_SUBMODULES = ("errors", "gf2", "graphs", "groups", "coxeter", "loops", "morphisms", "cohomology", "amalgams")
_SHADOWED = ("cohomology",)


def _bytecode_current(spec) -> bool:
    """Whether the layer's bytecode exists and is not older than its source."""
    try:
        return os.stat(spec.cached).st_mtime >= os.stat(spec.origin).st_mtime
    except OSError:
        return False


# each layer is a source file beside this one
for _name in _SUBMODULES:
    _spec = spec_from_file_location(f"{__name__}.{_name}", os.path.join(__path__[0], f"{_name}.py"))
    if not (sys.dont_write_bytecode or _spec.cached is None or _bytecode_current(_spec)):
        # compiled now, and its bytecode written, so that no command pays to
        # compile a layer when it first reaches it
        _spec.loader.get_code(_spec.name)
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = module_from_spec(_spec)
    _spec.loader.exec_module(_module)  # the body waits for the first attribute access
    if _name not in _SHADOWED:
        globals()[_name] = _module
del _name, _spec, _module


def _bind() -> None:
    """Bind every layer's exports in the package, and `__all__`: each name
    once, in pipeline order, then `__version__`."""
    g = globals()
    if "__all__" not in g:
        layers = [sys.modules[f"{__name__}.{m}"] for m in _SUBMODULES]
        exports = {name: getattr(m, name) for m in layers for name in m.__all__}
        g.update(exports)
        g["__all__"] = [*exports, "__version__"]


def __getattr__(name: str):
    # `from coxloops import cli` asks for `cli` before importing it, and
    # runs no layer to learn that none exports that name
    if name != "cli":
        _bind()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _bind()
    return sorted(globals())
