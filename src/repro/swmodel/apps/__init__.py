"""Application models: ping, iperf, bare-metal streaming, memcached, mutilate,
SPECint profiles, and Linux boot."""
