"""The whole-pipeline benchmark: probe -> interrogate -> journal -> derive -> serve.

One seeded world, four workloads, end-to-end metrics from untraced runs
through the ``CensysPlatform`` facade, and per-layer metrics from a
separate traced run whose wrappers live in this package (nothing under
``src/`` is edited).  ``README.md`` has the workload table, the metric
catalogue and the written-down predictions; ``run.py`` is the command.
"""
