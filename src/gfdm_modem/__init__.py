"""Radix-2 GFDM multicarrier modem library.

Two interchangeable block engines, a ground-truth dense reference, a channel
and equalizer chain, and closed-form cost, latency, and resource figures:

* :mod:`gfdm_modem.numerics` - the counted radix-2 transform and the input rules.
* :mod:`gfdm_modem.pulses` - prototype pulses and modem windows.
* :mod:`gfdm_modem.fft_modem` - reconfigurable four-stage FFT pipeline.
* :mod:`gfdm_modem.direct_modem` - parallel multiply-accumulate convolution.
* :mod:`gfdm_modem.reference` - dense matrix oracle and symbol mapping.
* :mod:`gfdm_modem.channel` - framing, multipath, one-tap equalizer.
* :mod:`gfdm_modem.analysis` - multiplication counts, latency, resources.
* :mod:`gfdm_modem.cli` - command-line front end.
"""

from .pulses import GfdmParams, PrototypePulse, make_prototype, window_pair
from .numerics import MulCounter

__all__ = [
    "GfdmParams",
    "PrototypePulse",
    "MulCounter",
    "make_prototype",
    "window_pair",
]

__version__ = "0.1.0"
