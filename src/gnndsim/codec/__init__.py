from .conv import ConvCode, conv_encode, make_conv_code_57, viterbi
from .ldpc import LdpcCode, bp_decode_batch, encode, ldpc_build
from .llr import bit_llrs

__all__ = [
    "ConvCode", "LdpcCode",
    "bit_llrs", "bp_decode_batch", "conv_encode", "encode",
    "ldpc_build", "make_conv_code_57", "viterbi",
]
