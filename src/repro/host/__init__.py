"""EC2 F1 host platform: instances, FPGAs, costs, performance, baselines."""
