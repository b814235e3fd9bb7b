"""The benchmark's workloads: one Table I stand-in and fit configuration each.

Every workload factors a synthetic Table I stand-in from
``repro.datasets.load_dataset(dataset, preset, DATASET_SEED)`` at rank 16.
Options not named here are library defaults.  ``iterations`` is the outer
iteration budget of one fit (run with ``outer_tolerance=0.0``, so every fit
does the same work unless its error rises), and ``target`` is the relative
error whose first crossing ends ``time_to_target_s``: the error the
library reached at iteration 2 of ``iterations`` when this benchmark was
defined, rounded up in the 4th significant digit.

The benchmark's ``--seed`` does not re-draw the tensor.  It relabels every
mode's indices with a random permutation and permutes the rows of the
initial factors the same way, so each seed poses the same problem with a
different memory layout, CSF/slab structure and ADMM block membership.
(Re-drawing the tensor or the initial factors moves the fit time of
``nell-blocked`` by up to 1.8x between seeds, which no regression bound
can absorb; see README.md.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

RANK = 16
#: Generator seed of every stand-in tensor and of the initial factors.
DATASET_SEED = 20170814
#: ``max_bytes_in_core`` of an out-of-core workload, as a share of its
#: store's footprint.
OOC_BUDGET_SHARE = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    preset: str
    #: ``(name, kwargs)`` of the constraint, built by
    #: ``repro.make_constraint(name, **kwargs)``.
    constraint: tuple
    iterations: int
    target: float
    #: Extra :class:`repro.AOADMMOptions` fields.
    options: dict = field(default_factory=dict)
    #: Open the input as a sharded store with ``OOC_BUDGET_SHARE`` of its
    #: footprint as ``max_bytes_in_core``, and checkpoint every iteration,
    #: keeping the last two versions (``False``: read the ``.tns`` in core).
    out_of_core: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(name="nell-blocked", dataset="nell", preset="small",
             constraint=("nonneg", {}), iterations=3, target=0.5477,
             options={"blocked": True}),
    Workload(name="patents-dense", dataset="patents", preset="medium",
             constraint=("nonneg", {}), iterations=4, target=0.5484),
    Workload(name="reddit-l1-sparse", dataset="reddit", preset="medium",
             constraint=("nonneg_l1", {"weight": 0.01}), iterations=4,
             target=0.8603, options={"repr_policy": "auto"}),
    Workload(name="nell-base-ooc", dataset="nell", preset="small",
             constraint=("nonneg", {}), iterations=4, target=0.5478,
             options={"blocked": False}, out_of_core=True),
)}
