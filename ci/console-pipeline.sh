#!/usr/bin/env bash
# End-to-end run of the installed `dirinfo` console script: simulate,
# estimate, graph (both families, under chi-square and surrogate
# calibration), test and decompose, then `check` every result and
# `replay` every manifest; malformed node groups and an unknown node
# label must exit 1 with one PartitionError line each.  Run from anywhere after `pip install .`:
#   bash ci/console-pipeline.sh
# It works in a fresh temporary directory and stops at the first failure.
set -e
cd "$(mktemp -d)"

# `refuses_groups MESSAGE ARGS`: `dirinfo ARGS` must exit 1 and print exactly
# `error: PartitionError: MESSAGE`; argparse errors exit 2, and `! cmd` would
# not stop the script under `set -e`
refuses_groups() {
  local want="error: PartitionError: $1" code=0 err
  shift
  err=$(dirinfo "$@" --out refused 2>&1 >/dev/null) || code=$?
  if [ "$code" -ne 1 ] || [ "$err" != "$want" ]; then
    echo "dirinfo $* exited $code, not 1 with '$want': $err" >&2
    exit 1
  fi
}
disjoint="A, B, C must be pairwise disjoint, each node named once"

dirinfo simulate nonlinear --T 2000 --seed 7 --out nl
dirinfo graph --input nl.csv --family var --out g
dirinfo check g.json
dirinfo replay nl.manifest.json
dirinfo replay g.manifest.json
dirinfo test --input nl.csv --family var --kind causality --A x --B y --out t
dirinfo test --input nl.csv --family var --kind coupling --A x --B y \
  --calibration surrogate --seed 3 --out s
for result in t s; do dirinfo check "$result.json"; done
for run in t s; do dirinfo replay "$run.manifest.json"; done
dirinfo estimate --input nl.csv --family var --out m
dirinfo replay m.manifest.json
dirinfo simulate var --model m.model.json --T 3000 --seed 5 --out sv
dirinfo graph --input sv.csv --family var --out gv
dirinfo check gv.json
dirinfo replay sv.manifest.json
dirinfo replay gv.manifest.json
dirinfo decompose --model m.model.json --A x --B y --out d
dirinfo check d.json
dirinfo replay d.manifest.json
dirinfo estimate --input nl.csv --family var --method yule_walker --out myw
dirinfo replay myw.manifest.json
dirinfo decompose --model myw.model.json --A x --B y --out dyw
dirinfo check dyw.json
dirinfo replay dyw.manifest.json
dirinfo estimate --input nl.csv --family discrete --bins 2 --out md
dirinfo replay md.manifest.json
dirinfo decompose --model md.model.json --A x --B y --n 4 --out dd
dirinfo check dd.json
dirinfo replay dd.manifest.json
dirinfo test --input nl.csv --family var --kind causality --A x --B y \
  --calibration surrogate --seed 3 --out vs
dirinfo test --input nl.csv --family discrete --bins 3 --kind causality \
  --A x --B y --calibration surrogate --seed 3 --out ds
for result in vs ds; do dirinfo check "$result.json"; done
for run in vs ds; do dirinfo replay "$run.manifest.json"; done
dirinfo simulate chain --T 3000 --seed 11 --out ch
dirinfo estimate --input ch.csv --family var --out mch
dirinfo decompose --model mch.model.json --mode contemporaneous --A x --B y --out dch
dirinfo check dch.json
for run in ch mch dch; do dirinfo replay "$run.manifest.json"; done
dirinfo graph --input ch.csv --family discrete --bins 3 --out gd
dirinfo graph --input ch.csv --family var --calibration surrogate --seed 11 --out gs
for result in gd gs; do dirinfo check "$result.json"; done
for run in gd gs; do dirinfo replay "$run.manifest.json"; done
dirinfo estimate --input ch.csv --family discrete --order 2 --bins 3 --out md2
dirinfo decompose --model md2.model.json --A x --B y --n 4 --out dd2
dirinfo check dd2.json
for run in md2 dd2; do dirinfo replay "$run.manifest.json"; done
refuses_groups "$disjoint" test --input nl.csv --family var --kind causality --A x --B x
refuses_groups "$disjoint" test --input nl.csv --family var --kind causality --A x --B y --C x
refuses_groups "$disjoint" decompose --model m.model.json --A x --B x
refuses_groups "unknown node label 'w'" test --input nl.csv --family var --kind causality \
  --A w --B y
refuses_groups "unknown node label 'w'" decompose --model m.model.json --A w --B y
