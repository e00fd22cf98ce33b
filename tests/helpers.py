"""Helpers shared by the test modules."""


def run_process(env, process):
    """Step ``env`` until ``process`` finishes; return its value.

    Built on :meth:`~repro.sim.core.Environment.step`, so it dispatches
    exactly the events ``env.run`` would, in the same order, and stops
    as soon as the process has its result. A failed process re-raises
    its exception here; a queue that drains first (a deadlock) raises
    ``SimulationError`` from ``step``.
    """
    while process.is_alive:
        env.step()
    if not process.ok:
        process.defuse()
        raise process.value
    return process.value
