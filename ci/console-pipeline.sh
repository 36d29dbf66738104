#!/usr/bin/env bash
# End-to-end run of the installed `dirinfo` console script: simulate,
# estimate, graph (both families, under chi-square and surrogate
# calibration, the latter also on a panel that blocks of 5 do not divide),
# test and decompose, then `check` every result and `replay` every manifest;
# a model whose initial law sums to 1 within 1e-12, though the sum rounds to
# 1.000000000001, must decompose; malformed node groups, an unknown node
# label, a surrogate count below 20 and a fractional model order must exit 1
# with one error line each.  Run from anywhere after `pip install .`:
#   bash ci/console-pipeline.sh
# It works in a fresh temporary directory and stops at the first failure.
set -e
cd "$(mktemp -d)"

# `refuses CLASS MESSAGE ARGS`: `dirinfo ARGS` must exit 1 and print exactly
# `error: CLASS: MESSAGE`; argparse errors exit 2, and `! cmd` would not stop
# the script under `set -e`
refuses() {
  local want="error: $1: $2" code=0 err
  shift 2
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
# T = 3001 rows cut into 600 blocks of 5 and one of 6
dirinfo simulate chain --T 3001 --seed 13 --out ch3
dirinfo test --input ch3.csv --family var --kind causality --A x --B y \
  --calibration surrogate --seed 13 --out us
dirinfo check us.json
for run in ch3 us; do dirinfo replay "$run.manifest.json"; done
refuses PartitionError "$disjoint" test --input nl.csv --family var --kind causality --A x --B x
refuses PartitionError "$disjoint" test --input nl.csv --family var --kind causality --A x --B y --C x
refuses PartitionError "$disjoint" decompose --model m.model.json --A x --B x
refuses PartitionError "unknown node label 'w'" test --input nl.csv --family var --kind causality \
  --A w --B y
refuses PartitionError "unknown node label 'w'" decompose --model m.model.json --A w --B y
refuses CalibrationError "need at least 20 surrogates, got 10" test --input nl.csv --family var \
  --kind causality --A x --B y --calibration surrogate --surrogates 10 --seed 3
# the discrete model with an initial law that sums to 1 + 9.99978e-13, which
# rounds to 1.000000000001: the model and the law enumerated from it must
# both accept it
python3 -c 'import json, sys; d = json.load(open("md.model.json")); d["initial"] = [float.fromhex(h) for h in sys.argv[1:]]; json.dump(d, open("md-edge.model.json", "w"))' \
  0x1.57bc4498df899p-3 0x1.7776059593505p-3 0x1.1c7cfc4c4f6afp-1 0x1.7db38940b08c4p-4
dirinfo decompose --model md-edge.model.json --A x --B y --n 4 --out de
dirinfo check de.json
# the same discrete and VAR models, each with a fractional order
for model in md m; do
  sed 's/"order": [0-9]*/"order": 1.5/' "$model.model.json" > "$model-half.model.json"
  refuses InvalidModel "order 1.5 is not an integer" decompose --model "$model-half.model.json" \
    --A x --B y
done
