"""Target network: Ethernet, switch models, transports, tracing."""
