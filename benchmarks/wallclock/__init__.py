"""Host-time benchmark of the simulator (see README.md in this directory).

Simulated statistics are the paper's numbers and must stay byte-identical;
this package measures what the simulator itself costs: host seconds, Python
calls and host memory per simulated event, end to end and layer by layer.
"""
