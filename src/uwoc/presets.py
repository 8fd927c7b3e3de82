"""Reference fitted parameters for laboratory water-tank channels.

Each entry describes one measured channel condition (bubble injection level
in L/min, plus either a temperature gradient in degC/cm or uniform-temperature
salty/fresh water) together with the fitted parameters of the three mixture
models and the scintillation index of each fit.  The measured scintillation
index of the underlying 100k-sample campaign is kept for context; the raw
samples themselves are not distributed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import EggParams, EgParams, ExpLognormalParams


@dataclass(frozen=True)
class ChannelCondition:
    label: str
    bubbles_lpm: float
    gradient: float | None  # degC/cm, None for thermally uniform water
    water: str  # "fresh" or "salty"
    sigma2_measured: float
    egg: EggParams
    sigma2_egg: float
    eg: EgParams
    sigma2_eg: float
    expln: ExpLognormalParams
    sigma2_expln: float


GRADIENT_CONDITIONS = (
    ChannelCondition(
        "2.4lpm-0.05C", 2.4, 0.05, "fresh", 0.1494,
        EggParams(0.2130, 0.3291, 1.4299, 1.1817, 17.1984), 0.1484,
        EgParams(0.2324, 0.3831, 393.5944, 0.0030), 0.1521,
        ExpLognormalParams(0.2338, 0.3869, 0.1702, 0.0025), 0.1521,
    ),
    ChannelCondition(
        "2.4lpm-0.10C", 2.4, 0.10, "fresh", 0.1693,
        EggParams(0.2108, 0.2694, 0.6020, 1.2795, 21.1611), 0.1659,
        EgParams(0.2570, 0.3897, 227.8358, 0.0053), 0.1726,
        ExpLognormalParams(0.2596, 0.3962, 0.1899, 0.0043), 0.1734,
    ),
    ChannelCondition(
        "2.4lpm-0.15C", 2.4, 0.15, "fresh", 0.1953,
        EggParams(0.1807, 0.1641, 0.2334, 1.4201, 22.5924), 0.1915,
        EgParams(0.2877, 0.4077, 79.2682, 0.0156), 0.2033,
        ExpLognormalParams(0.2963, 0.4244, 0.2111, 0.0122), 0.2066,
    ),
    ChannelCondition(
        "2.4lpm-0.20C", 2.4, 0.20, "fresh", 0.2221,
        EggParams(0.1665, 0.1207, 0.1559, 1.5216, 22.8754), 0.2178,
        EgParams(0.3183, 0.4246, 48.5897, 0.0261), 0.2346,
        ExpLognormalParams(0.3344, 0.4511, 0.2343, 0.0193), 0.2413,
    ),
    ChannelCondition(
        "4.7lpm-0.05C", 4.7, 0.05, "fresh", 0.4523,
        EggParams(0.4589, 0.3449, 1.0421, 1.5768, 35.9424), 0.4201,
        EgParams(0.4811, 0.3926, 1.3828e3, 0.0011), 0.4171,
        ExpLognormalParams(0.4817, 0.3939, 0.4464, 7.1846e-4), 0.4171,
    ),
    ChannelCondition(
        "4.7lpm-0.10C", 4.7, 0.10, "fresh", 0.5059,
        EggParams(0.4539, 0.2744, 0.3008, 1.7053, 54.1422), 0.4769,
        EgParams(0.5129, 0.3978, 822.3038, 0.0020), 0.4646,
        ExpLognormalParams(0.5140, 0.4001, 0.4907, 0.0012), 0.4645,
    ),
    ChannelCondition(
        "16.5lpm-0.22C", 16.5, 0.22, "fresh", 2.0493,
        EggParams(0.6238, 0.1094, 0.0111, 4.4750, 105.3550), 1.9328,
        EgParams(0.6527, 0.1194, 3.1458, 0.8439), 2.2447,
        ExpLognormalParams(0.6628, 0.1257, 0.8547, 0.3458), 2.7411,
    ),
    ChannelCondition(
        "23.6lpm-0.22C", 23.6, 0.22, "fresh", 3.3238,
        EggParams(0.7210, 0.1479, 0.0121, 7.4189, 65.6983), 3.1952,
        EgParams(0.7518, 0.1536, 2.2364, 1.5937), 3.5978,
        ExpLognormalParams(0.7602, 0.1577, 1.0955, 0.4713), 4.5424,
    ),
)

# NOTE: the salty 0 L/min Gamma shape is 4.2727e3 (its scintillation index
# 1/alpha and mean alpha*beta are consistent only at that magnitude).
UNIFORM_CONDITIONS = (
    ChannelCondition(
        "salty-0lpm", 0.0, None, "salty", 2.3407e-4,
        EggParams(1.4684e-23, 0.9853, 1.0126e3, 0.0344, 2.0541), 2.3408e-4,
        EgParams(1.5540e-18, 0.9820, 4.2727e3, 2.3404e-4), 2.3404e-4,
        ExpLognormalParams(7.0109e-12, 0.9786, -1.1703e-4, 2.3406e-4), 2.3409e-4,
    ),
    ChannelCondition(
        "salty-2.4lpm", 2.4, None, "salty", 0.0821,
        EggParams(0.1770, 0.4687, 0.7736, 1.1372, 49.1773), 0.1006,
        EgParams(0.2037, 0.5369, 1.5559e3, 7.1885e-4), 0.1142,
        ExpLognormalParams(0.2045, 0.5389, 0.1117, 6.3979e-4), 0.1147,
    ),
    ChannelCondition(
        "salty-4.7lpm", 4.7, None, "salty", 0.1216,
        EggParams(0.2064, 0.3953, 0.5307, 1.2154, 35.7368), 0.1308,
        EgParams(0.2436, 0.4818, 501.9905, 0.0023), 0.1450,
        ExpLognormalParams(0.2451, 0.4854, 0.1536, 0.0020), 0.1458,
    ),
    ChannelCondition(
        "salty-7.1lpm", 7.1, None, "salty", 0.2917,
        EggParams(0.4344, 0.4747, 0.3935, 1.4506, 77.0245), 0.3111,
        EgParams(0.4876, 0.5612, 2.2911e3, 6.1870e-4), 0.3372,
        ExpLognormalParams(0.4882, 0.5622, 0.3488, 4.3403e-4), 0.3376,
    ),
    ChannelCondition(
        "salty-16.5lpm", 16.5, None, "salty", 1.1847,
        EggParams(0.4951, 0.1368, 0.0161, 3.2033, 82.1030), 1.1273,
        EgParams(0.5740, 0.1853, 5.6545, 0.3710), 1.2456,
        ExpLognormalParams(0.6113, 0.2240, 0.7345, 0.1407), 1.2995,
    ),
    ChannelCondition(
        "fresh-0lpm", 0.0, None, "fresh", 3.6039e-4,
        EggParams(4.0628e-21, 1.0225, 30.8432, 0.6993, 9.5461), 3.6044e-4,
        EgParams(8.2201e-17, 0.9912, 2.7695e3, 3.6108e-4), 3.6108e-4,
        ExpLognormalParams(1.3445e-10, 0.9884, -1.8055e-4, 3.6149e-4), 3.6195e-4,
    ),
    ChannelCondition(
        "fresh-2.4lpm", 2.4, None, "fresh", 0.0798,
        EggParams(0.1953, 0.5273, 3.7291, 1.0721, 30.3214), 0.1088,
        EgParams(0.2069, 0.5560, 3.6140e3, 3.0876e-4), 0.1157,
        ExpLognormalParams(0.2073, 0.5567, 0.1095, 2.7575e-4), 0.1159,
    ),
    ChannelCondition(
        "fresh-4.7lpm", 4.7, None, "fresh", 0.1058,
        EggParams(0.2109, 0.4603, 1.2526, 1.1501, 41.3258), 0.1233,
        EgParams(0.2298, 0.5075, 2.0129e3, 5.6979e-4), 0.1320,
        ExpLognormalParams(0.2302, 0.5085, 0.1369, 4.9552e-4), 0.1323,
    ),
    # EGG weight is a digit transposition in the published table (0.3489);
    # only 0.4389 reproduces the row's scintillation index and unit mean.
    ChannelCondition(
        "fresh-7.1lpm", 7.1, None, "fresh", 0.2963,
        EggParams(0.4389, 0.4771, 0.4319, 1.4531, 74.3650), 0.3150,
        EgParams(0.4866, 0.5549, 2.3951e3, 5.9365e-4), 0.3380,
        ExpLognormalParams(0.4870, 0.5556, 0.3518, 4.1578e-4), 0.3383,
    ),
    ChannelCondition(
        "fresh-16.5lpm", 16.5, None, "fresh", 1.1030,
        EggParams(0.5117, 0.1602, 0.0075, 2.9963, 216.8356), 1.0409,
        EgParams(0.5717, 0.1992, 6.7615, 0.3059), 1.1495,
        ExpLognormalParams(0.6207, 0.2561, 0.7502, 0.1014), 1.1646,
    ),
)

ALL_CONDITIONS = GRADIENT_CONDITIONS + UNIFORM_CONDITIONS

_BY_LABEL = {c.label: c for c in ALL_CONDITIONS}


def condition(label):
    """Look up a channel condition by its label."""
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise KeyError(
            f"unknown channel condition {label!r}; known: {sorted(_BY_LABEL)}"
        ) from None
