"""perfbench: the layered benchmark every perf or simplicity claim cites.

Five workloads over the simulator's public entry points, nine
end-to-end metrics (host cost *and* simulated results), and a per-layer
ledger folded from a separately traced run. Everything is measured from
outside ``src/repro``; see ``perfbench/README.md``.
"""
