"""Reference implementations the equivalence tests compare against.

They are the straightforward versions of the engine's hot paths, kept
for one purpose: to pin that the optimized code computes exactly the
same results.
"""
