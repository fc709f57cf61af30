"""Router microarchitectures for the Section 5 simulations."""

from ..config import RouterKind, SimConfig
from ..topology import Mesh
from .base import BaseRouter, InputVC, OutputVC, RouterStats, VCState
from .wormhole import WormholeRouter
from .vc import VirtualChannelRouter
from .spec_vc import SpeculativeVCRouter
from .single_cycle import SingleCycleVCRouter, SingleCycleWormholeRouter
from .vct import VirtualCutThroughRouter

# Imported with the package, never lazily: ``compile_step`` compares each
# step method against the function it captured at import, so a class
# patched before the first network is wired still counts as patched.
from . import specialized  # noqa: E402,F401

_ROUTER_CLASSES = {
    RouterKind.WORMHOLE: WormholeRouter,
    RouterKind.VIRTUAL_CHANNEL: VirtualChannelRouter,
    RouterKind.SPECULATIVE_VC: SpeculativeVCRouter,
    RouterKind.SINGLE_CYCLE_WORMHOLE: SingleCycleWormholeRouter,
    RouterKind.SINGLE_CYCLE_VC: SingleCycleVCRouter,
    RouterKind.VIRTUAL_CUT_THROUGH: VirtualCutThroughRouter,
}


def make_router(node: int, mesh: Mesh, config: SimConfig) -> BaseRouter:
    """Instantiate the router class for ``config.router_kind``."""
    try:
        cls = _ROUTER_CLASSES[config.router_kind]
    except KeyError:
        raise ValueError(f"unknown router kind {config.router_kind!r}") from None
    return cls(node, mesh, config)


__all__ = [
    "BaseRouter",
    "InputVC",
    "OutputVC",
    "RouterStats",
    "SingleCycleVCRouter",
    "SingleCycleWormholeRouter",
    "SpeculativeVCRouter",
    "VCState",
    "VirtualChannelRouter",
    "VirtualCutThroughRouter",
    "WormholeRouter",
    "make_router",
]
