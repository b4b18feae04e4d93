"""Link-level simulation of generalized nearest neighbor decoding (GNND)
for multiuser uplink interference suppression."""

__version__ = "0.1.0"

from .channel import estimate_channel, sample_gains, transmit
from .constellation import BitLabeling, Constellation, make_qpsk, modulate
from .fronts import ClFront, FrontSolverError, cl_front, qpsk_estimates, solve_front, tilted_pmf
from .posterior import EnumerationCapError, SplitEnumeration
from .rates import RateEstimate, evaluate_user_rates

__all__ = [
    "BitLabeling", "ClFront",
    "Constellation", "EnumerationCapError", "FrontSolverError",
    "RateEstimate", "SplitEnumeration",
    "cl_front", "estimate_channel", "evaluate_user_rates",
    "make_qpsk", "modulate", "qpsk_estimates", "sample_gains", "solve_front",
    "tilted_pmf", "transmit",
]
