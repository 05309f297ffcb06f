"""The in-order job loop behind `duality.is_local_tpd`.

Star reports are computed one face at a time, in face order; threads gave no
speedup on this pure-Python work. The loop stays a named function because the
benchmark's per-layer trace (`bench/layers.WRAPPED`) times it by this name.
"""


def run_jobs(jobs):
    """Run the zero-argument callables, returning results in order."""
    return [job() for job in jobs]
