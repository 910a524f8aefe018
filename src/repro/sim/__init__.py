"""The discrete-event queue (:mod:`repro.sim.engine`) the protocol simulator runs on.

The protocol stack itself -- one OLSR agent per node over a seeded, optionally lossy
channel, including data-packet forwarding -- is :mod:`repro.protocol`.
"""
