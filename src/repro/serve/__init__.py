"""Anonymization as a service: a long-lived daemon over the engine.

The ROADMAP north star is serving DP trajectory releases to many
tenants; this package is that serving layer. It splits into a sync
HTTP API (:mod:`repro.serve.daemon`), a background job runner over
the engine pool (:mod:`repro.serve.jobs`), a process-wide warm engine
cache (:mod:`repro.serve.engines`), and the subsystem the others
exist to protect: per-tenant epsilon budget accounts
(:mod:`repro.serve.budget`), where every job's privacy spend is
reserved before execution, committed from its
:class:`~repro.core.accounting.CompositionLedger` on success, and
released on failure — durably, and safe against concurrent requests.

Quick start::

    from repro.serve import Daemon, ServeConfig

    config = ServeConfig(port=0, tenants=(("acme", 4.0),))
    with Daemon(config) as daemon:
        host, port = daemon.address
        ...  # POST /v1/jobs, GET /v1/jobs/<id>, stream the result

or from the command line: ``repro serve --tenant acme=4.0``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.serve.budget": (
        "AccountError", "BudgetExceededError", "BudgetStore", "TenantAccount",
        "UnknownTenantError",
    ),
    "repro.serve.daemon": ("Daemon", "ServeConfig"),
    "repro.serve.engines": ("EngineCache",),
    "repro.serve.jobs": ("JOB_STATES", "Job", "JobRunner"),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
