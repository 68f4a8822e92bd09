"""repro.api — the one front door to every anonymization method.

Three pieces:

* :class:`MethodSpec` (:mod:`repro.api.spec`) — a frozen, validated,
  picklable ``(kind, params)`` description of a configured method,
  with ``to_dict``/``from_dict`` and a stable config :attr:`digest
  <repro.api.spec.MethodSpec.digest>`; the provenance recorded in
  reports and what the serving daemon's jobs name;
* the **method registry** (:mod:`repro.api.registry`) — string-keyed
  :func:`register` decorator covering GL/PureG/PureL and every
  Table II baseline, with ``repro.methods`` entry-point discovery for
  third-party plugins; :func:`method_names`/:func:`method_info` list
  it, :func:`build` constructs from a spec;
* :func:`run` (:mod:`repro.api.session`) — execute a spec against a
  dataset on the serial or batch engine and get a :class:`RunResult`
  (output dataset + report + spec + timing) back in one value, with
  no shared mutable state;
* :func:`publish` / :func:`split_spec` — the streaming whole-dataset
  publisher: one ε-DP release over a chunked stream via
  :class:`repro.engine.publish.StreamPublisher`, with the ε_G/ε_L
  budget split carried declaratively in the spec's params.

The CLI (``repro anonymize --method``, ``repro methods``) and the
experiment drivers are thin layers over exactly these calls.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.api.spec": ("MethodSpec", "canonical_digest", "canonical_json"),
    "repro.api.registry": (
        "ENTRY_POINT_GROUP", "FAMILIES", "MethodInfo", "build", "method_info",
        "method_names", "register",
    ),
    "repro.api.session": (
        "ENGINE_KINDS", "RunResult", "as_spec", "publish", "run", "split_spec",
    ),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
