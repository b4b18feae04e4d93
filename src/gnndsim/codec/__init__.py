from .conv import ConvCode, conv_encode, exhaustive_decode, make_conv_code_57, viterbi
from .ldpc import LdpcCode, bp_decode, bp_decode_batch, encode, gf2_rank, ldpc_build, syndrome
from .llr import LLR_MAX_DEFAULT, bit_llrs

__all__ = [
    "ConvCode", "LdpcCode", "LLR_MAX_DEFAULT",
    "bit_llrs", "bp_decode", "bp_decode_batch", "conv_encode", "encode",
    "exhaustive_decode", "gf2_rank", "ldpc_build", "make_conv_code_57",
    "syndrome", "viterbi",
]
