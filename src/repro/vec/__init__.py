"""Structure-of-arrays kernels behind the scalar simulation/query APIs.

This package vectorizes the two hottest paths of the reproduction with
NumPy while keeping the scalar code the source of truth:

* :mod:`repro.vec.engine` runs a whole sweep cell — every trip under
  one (policy, update-cost) pair — through a lock-step tick loop over
  ``(n_vehicles, n_ticks)`` arrays, mirroring
  :meth:`repro.sim.engine.PolicySimulation._run_fast` operation for
  operation so the results are byte-identical.
* :mod:`repro.vec.bounds` evaluates the §3.3 deviation bounds
  (Propositions 2-4) over arrays of candidates, mirroring the closures
  of :mod:`repro.core.bounds`.
* :mod:`repro.vec.geom` batches the bbox min/max-distance pre-tests of
  the query kernel.

NumPy is a hard dependency.  The callers choose between array and
scalar code from their inputs alone: :mod:`repro.exec.executor`
dispatches trip blocks of at least ``_MIN_VEC_TRIPS`` trips to the
engine, and the single may/must query kernel in
:mod:`repro.dbms.batch` — which every query route refines through —
uses the bounds and geometry kernels for at least
``_MIN_VEC_CANDIDATES`` candidates.
"""

__all__: list[str] = []
