"""binauralkit: mono-to-binaural spatial audio rendering, interaural metric
evaluation, heatmap spatial features and toy conditional flow matching."""

from .audio import AudioBuffer, BinauralBuffer, fft_convolve, read_wav, stft, write_wav
from .ambisonic import (
    SpeakerLayout,
    Trajectory,
    decode_matrix,
    encode_mono,
    project_to_speakers,
    ring_layout,
)
from .hrir import analytic_hrir, lookup
from .render import RenderConfig, direction_from_features, render_trajectory
from .metrics import SpatialMetricsReport, spatial_report
from .heatmap import extract_features, load_heatmap_sequence

__version__ = "0.1.0"
