"""Exact-arithmetic engine for Mirkovic-Vilonen polytopes.

A polytope is stored as a BZ datum: one integer per chamber weight,
subject to edge inequalities and tropical min-relations on 2-faces.
"""

from .bz import (
    BZDatum,
    ValidationReport,
    edge_length,
    from_lusztig,
    is_valid,
    lusztig_data,
    make_bz,
    validate,
)
from .cartan import CartanDatum, Coweight, Weight, build_cartan, pairing
from .lusztig import braid_transition, enumerate_lusztig, transport
from .polytope import (
    coweight,
    enumerate_mv,
    minkowski_sum,
    mu1,
    mu2,
    negate,
    normalize,
    psi,
    scale,
    translate,
    vertex,
    vertices,
)
from .primes import Catalog, PrimePolytope, build_catalog, decompose, prime_by_label
from .rep import (
    kostant_weight_mult,
    steinberg_tensor_mult,
    tensor_mult_mv,
    weight_mult_canonical,
    weight_mult_mv,
    weyl_dim,
)
from .sln import collapse, facet_lusztig
from .weyl import WeylGroup, weyl_group

__all__ = [
    "BZDatum",
    "CartanDatum",
    "Catalog",
    "Coweight",
    "PrimePolytope",
    "ValidationReport",
    "Weight",
    "WeylGroup",
    "braid_transition",
    "build_cartan",
    "build_catalog",
    "collapse",
    "coweight",
    "decompose",
    "edge_length",
    "enumerate_lusztig",
    "enumerate_mv",
    "facet_lusztig",
    "from_lusztig",
    "is_valid",
    "kostant_weight_mult",
    "lusztig_data",
    "make_bz",
    "minkowski_sum",
    "mu1",
    "mu2",
    "negate",
    "normalize",
    "pairing",
    "prime_by_label",
    "psi",
    "scale",
    "steinberg_tensor_mult",
    "tensor_mult_mv",
    "translate",
    "transport",
    "validate",
    "vertex",
    "vertices",
    "weight_mult_canonical",
    "weight_mult_mv",
    "weyl_dim",
    "weyl_group",
]

__version__ = "0.1.0"
