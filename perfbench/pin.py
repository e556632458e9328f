"""Regenerate ``digests.json``: the pinned record digests of every study
the figs-cold and charz-pool plans can request.

Each digest comes from a direct sequential ``CharacterizationStudy.run``
-- for charz-pool deliberately not the pooled path it checks, so the
benchmark compares ``run_parallel``'s merge against the sequential
campaign. Run from the repository root (takes a few minutes)::

    PYTHONPATH=src python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _digest(scale, seed, modules, tests) -> str:
    from repro.core.serialization import study_to_dict
    from repro.core.study import CharacterizationStudy

    study = CharacterizationStudy(scale=scale, seed=seed).run(
        modules=list(modules), tests=tuple(tests)
    )
    return workloads.records_digest(study_to_dict(study))


def main() -> int:
    from repro.core.scale import StudyScale

    pins = {"figs-cold": {}, "charz-pool": {}}
    for smoke in (True, False):
        for seed in workloads.STUDY_SEEDS:
            figs = dict(workloads.plan("figs-cold", 0, smoke=smoke),
                        study_seed=seed)
            pins["figs-cold"][workloads.pin_key(figs, smoke)] = {
                test: _digest(StudyScale.bench(), seed, figs["modules"],
                              (test,))
                for test in ("rowhammer", "retention")
            }
            charz = dict(workloads.plan("charz-pool", 0, smoke=smoke),
                         study_seed=seed)
            pins["charz-pool"][workloads.pin_key(charz, smoke)] = _digest(
                workloads.charz_scale(charz), seed, [charz["module"]],
                charz["tests"],
            )
            print(f"pinned smoke={smoke} seed={seed}", flush=True)
    with open(os.path.join(HERE, "digests.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
