"""Edge-independent graph generative models.

Fitting, sampling, and auditing models where every edge appears
independently with its own probability: degree-preserving odds-product
fits, overlap-tunable baselines (linear, CCOP, HDOP, TSVD), the eight
reference statistics, and machine checks of the triangle / k-cycle /
clustering-coefficient density bounds implied by bounded overlap.

Import names from their modules: ``import eigm`` loads no numpy, so that
``eigm.cli`` can still set the BLAS thread count.
"""

__version__ = "0.1.0"

_GRAPHS_NAMES = ("Graph", "degrees", "largest_connected_component", "serialize_edge_list")


def __getattr__(name):
    # eigm.<name> for the four names bench/workloads.py reads. The check comes
    # first: the import below looks up eigm.graphs, which would recurse here.
    if name not in _GRAPHS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import graphs

    return getattr(graphs, name)
