"""Link-level simulation of generalized nearest neighbor decoding (GNND)
for multiuser uplink interference suppression."""

__version__ = "0.1.0"

from .channel import ChannelEstimate, ChannelInstance, estimate_channel, sample_gains, transmit
from .constellation import BitLabeling, Constellation, label_set, make_qpsk, modulate
from .fronts import ClFront, FrontSolverError, GnndFront, cl_front, qpsk_front, solve_front, tilted_pmf
from .posterior import EnumerationCapError, JointEnumeration
from .rates import RateEstimate, gmi_cl_qpsk, gmi_gnnd_qpsk, kl_gap, mutual_information, sum_rate

__all__ = [
    "BitLabeling", "ChannelEstimate", "ChannelInstance", "ClFront",
    "Constellation", "EnumerationCapError", "FrontSolverError", "GnndFront",
    "JointEnumeration", "RateEstimate",
    "cl_front", "estimate_channel", "gmi_cl_qpsk", "gmi_gnnd_qpsk", "kl_gap",
    "label_set", "make_qpsk", "modulate", "mutual_information", "qpsk_front",
    "sample_gains", "solve_front", "sum_rate", "tilted_pmf", "transmit",
]
