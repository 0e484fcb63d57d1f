"""Edge-cluster substrate: what the paper's Raspberry-Pi testbed provides.

* :mod:`repro.cluster.netmodel` — the WiFi link (62.24 Mbps client-to-client,
  8.83 ms peer-to-peer latency for 64 B transfers, per paper section IV-A).
* :mod:`repro.cluster.device` — compute models for the platforms of
  Table IV (Pi, Jetson TX2 CPU/GPU, HPC CPU/GPU) plus the 32x32 systolic
  array of the custom-hardware study.
* :mod:`repro.cluster.serialization` — genomes as streams of 32-bit words
  (the paper's gene wire format).
* :mod:`repro.cluster.analytic` — closed-form per-generation phase timing
  over homogeneous or heterogeneous (per-agent device) fleets.
* :mod:`repro.cluster.simulator` — discrete-event cross-check of the
  analytic model, plus pipelined and barrier-free ``async`` execution
  modes (see ``docs/asynchrony.md``).
* :mod:`repro.cluster.transport` / :mod:`repro.cluster.runtime` — a real
  multiprocess CLAN_DDA backend (one OS process per clan): one clan
  protocol, ``clan_run`` windows, under a barrier driver (one-generation
  windows) and a barrier-free one.
"""

from repro.cluster.netmodel import WiFiModel
from repro.cluster.device import DeviceModel, get_device, available_devices
from repro.cluster.serialization import (
    decode_batched_plan,
    decode_genome,
    encode_batched_plan,
    encode_genome,
    genome_wire_floats,
)

__all__ = [
    "WiFiModel",
    "DeviceModel",
    "get_device",
    "available_devices",
    "encode_genome",
    "decode_genome",
    "encode_batched_plan",
    "decode_batched_plan",
    "genome_wire_floats",
]
