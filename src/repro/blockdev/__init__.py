"""Block device controller (Section III-A3)."""
