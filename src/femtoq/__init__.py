"""Cooperative tabular Q-learning for downlink power allocation in dense femtocell networks."""

__version__ = "0.1.0"

# The root re-exports no names; import from the modules, e.g.
# ``from femtoq.coordinator import Simulation``. It still loads them (all but
# ``cli``), so a later module import costs nothing, and code that patches module
# functions, such as a tracer, finds every module it patches already loaded.
from . import channel, config, coordinator, learning, oracle, reward, topology  # noqa: F401
