"""Link-level Monte-Carlo simulator for coordinated interference-driving beamformers."""

from beamlink import beamformer, channel, experiments, linksim, metrics, topology
from beamlink.beamformer import *  # noqa: F401,F403
from beamlink.channel import *  # noqa: F401,F403
from beamlink.experiments import *  # noqa: F401,F403
from beamlink.linksim import *  # noqa: F401,F403
from beamlink.metrics import *  # noqa: F401,F403
from beamlink.topology import *  # noqa: F401,F403

__all__ = [
    name
    for module in (channel, topology, beamformer, linksim, metrics, experiments)
    for name in module.__all__
]
