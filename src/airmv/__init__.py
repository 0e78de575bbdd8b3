"""Over-the-air majority-vote computation on the zeros of Huffman polynomials."""

from .aggregation import ProbeAggregator
from .baselines import default_sequence_length, goldenbaum_estimate, obda_received
from .channel import PdpConfig, pdp, sample_channel, superpose
from .decoding import (
    DecoderContext,
    DetectorForm,
    channel_power,
    decode,
    detector_form,
    noise_power,
    probe_points,
    signal_scale,
    signal_scale_differential,
    signal_scale_indexed,
    signal_scale_uncoded,
)
from .encoding import Method, vote_pattern
from .huffman import (
    RadiusParam,
    aacf,
    poly_eval,
    radius_param,
    synthesize_coeffs,
    zero_form_eval,
)
from .median import local_votes, run_median
from .theory import (
    CerEstimate,
    CerModel,
    cdf_diff_exp_sums,
    cer,
    detection_rates,
    vote_averaged_cers,
)
from .waveform import (
    dfts_ofdm_modulate,
    ofdm_map_modulate,
    pmepr,
    resources_per_mv,
    separation_resources,
)

__version__ = "0.1.0"
