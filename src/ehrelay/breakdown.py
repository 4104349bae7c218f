"""The two-bound rate report shared by every scheme.

It sits below both ``rates`` and ``timing``, so each can build one without
importing the other.
"""

from __future__ import annotations

from dataclasses import dataclass

BINDING_TIE = 1e-9


@dataclass(frozen=True)
class RateBreakdown:
    """Both bounds, their min, the clamp at zero, and which side binds."""

    relay_bound: float
    receiver_bound: float
    rate: float
    achievable: float
    binding: str

    @classmethod
    def from_bounds(cls, relay: float, receiver: float) -> "RateBreakdown":
        rate = min(relay, receiver)
        if abs(relay - receiver) <= BINDING_TIE:
            binding = "both"
        elif receiver < relay:
            binding = "receiver"
        else:
            binding = "relay"
        return cls(relay_bound=relay, receiver_bound=receiver, rate=rate,
                   achievable=max(rate, 0.0), binding=binding)
