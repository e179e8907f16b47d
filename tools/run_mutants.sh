#!/usr/bin/env bash
# Mutation check: each mutation in the fixed list below breaks one contract
# the headers promise, and the test suite must notice. The script copies the
# repository (tracked and untracked, not ignored, files) into a scratch
# directory, builds it once and checks that the unmutated copy passes, then
# for each mutation: applies it, rebuilds, runs ctest, and restores the file.
# A mutant under which every test still passes is a survivor; any survivor
# (or a mutation whose text no longer matches the source) fails the script.
#
#   tools/run_mutants.sh [--keep] [-j N]
#
# Extra CMake configure flags can be passed in CMAKE_ARGS, e.g.
#   CMAKE_ARGS="-G Ninja -DCMAKE_BUILD_TYPE=Release" tools/run_mutants.sh
# The AVX2 kernel mutant only bites on hosts that run the AVX2 kernels, and
# the deadline mutant needs fault injection on (the default build).

set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
JOBS=$(nproc 2>/dev/null || echo 2)
KEEP=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --keep) KEEP=1 ;;
    -j) shift; JOBS="$1" ;;
    *) echo "usage: $0 [--keep] [-j N]" >&2; exit 2 ;;
  esac
  shift
done

WORK=$(mktemp -d "${TMPDIR:-/tmp}/psi_mutants.XXXXXX")
if [[ $KEEP -eq 0 ]]; then
  trap 'rm -rf "$WORK"' EXIT
else
  echo "work directory: $WORK"
fi
SRC="$WORK/repo"
BUILD="$WORK/build"
mkdir -p "$SRC"
(cd "$ROOT" && git ls-files -z --cached --others --exclude-standard |
   tar --null -T - -cf -) | tar -xf - -C "$SRC"

# shellcheck disable=SC2086
cmake -S "$SRC" -B "$BUILD" ${CMAKE_ARGS:-} >"$WORK/configure.log"

build_and_test() {  # returns ctest's status; a build failure exits the script
  if ! cmake --build "$BUILD" -j "$JOBS" >"$WORK/build.log" 2>&1; then
    tail -n 30 "$WORK/build.log" >&2
    echo "run_mutants: build failed (mutation does not compile?)" >&2
    exit 2
  fi
  ctest --test-dir "$BUILD" -j "$JOBS" --timeout 120 >"$WORK/ctest.log" 2>&1
}

echo "== unmutated baseline"
if ! build_and_test; then
  grep -E "Failed|\*\*\*" "$WORK/ctest.log" | head -n 20 >&2
  echo "run_mutants: the unmutated tree fails its tests" >&2
  exit 2
fi

# replace FILE OLD NEW [OLD NEW ...]: exact text replacements, each of
# which must match exactly once.
replace() {
  python3 - "$@" <<'PY'
import sys
path, pairs = sys.argv[1], sys.argv[2:]
text = open(path).read()
for old, new in zip(pairs[0::2], pairs[1::2]):
    count = text.count(old)
    if count != 1:
        sys.exit("run_mutants: %s: mutation text matches %d times, need 1:\n%s"
                 % (path, count, old))
    text = text.replace(old, new)
open(path, "w").write(text)
PY
}

SURVIVORS=()
KILLED=0
# mutant NAME FILE OLD NEW [OLD NEW ...]
mutant() {
  local name="$1" file="$SRC/$2"
  shift 2
  echo "== $name"
  cp "$file" "$WORK/pristine"
  replace "$file" "$@"
  if build_and_test; then
    echo "   SURVIVED"
    SURVIVORS+=("$name")
  else
    echo "   killed: $(grep -c -E '\*\*\*|Failed  ' "$WORK/ctest.log" || true) failing tests"
    KILLED=$((KILLED + 1))
  fi
  cp "$WORK/pristine" "$file"
}

mutant "scalar satisfaction comparison flipped" \
  src/signature/sparse_requirement.h \
  'if (candidate[idx[j]] + kSatisfactionEpsilon < val[j]) return false;' \
  'if (candidate[idx[j]] + kSatisfactionEpsilon >= val[j]) return false;'

mutant "AVX2 satisfaction comparison flipped" \
  src/signature/kernels_avx2.cc \
  '_mm256_cmp_ps(_mm256_add_ps(cand, eps), need, _CMP_LT_OQ);' \
  '_mm256_cmp_ps(_mm256_add_ps(cand, eps), need, _CMP_GE_OQ);'

mutant "CSR edge-label symmetry check skipped on .psnap load" \
  src/graph/graph_builder.cc \
  'if (edge_labels[rev] != edge_labels[i]) {' \
  'if (false) {'

mutant "admission counted after enqueue" \
  src/service/service.cc \
  $'    metrics_.RecordAdmitted(num_queries);\n    // Chaos hook' \
  $'    // Chaos hook' \
  $'      if (attempt > 0) metrics_.RecordRetriedAdmission();\n' \
  $'      metrics_.RecordAdmitted(num_queries);\n      if (attempt > 0) metrics_.RecordRetriedAdmission();\n' \
  $'    metrics_.UndoAdmitted(num_queries);\n' \
  ''

mutant "deadline started at execution, not admission" \
  src/service/service.cc \
  'util::Deadline::After(limit - admission_timer.Seconds())' \
  'util::Deadline::After(limit)'

mutant "probe limit checked with > instead of >=" \
  src/core/pure_drivers.cc \
  'if (limit > 0 && result.valid_nodes.size() >= limit) break;' \
  'if (limit > 0 && result.valid_nodes.size() > limit) break;'

mutant "probe limit checked one node early" \
  src/core/pure_drivers.cc \
  'if (limit > 0 && result.valid_nodes.size() >= limit) break;' \
  'if (limit > 0 && result.valid_nodes.size() + 1 >= limit) break;'

mutant "SubmitSupportBatch drops the limit" \
  src/fsm/support.cc \
  $'    probe.max_valid_nodes = min_support;\n' \
  ''

echo "== $KILLED killed, ${#SURVIVORS[@]} survived"
if [[ ${#SURVIVORS[@]} -gt 0 ]]; then
  printf 'SURVIVOR: %s\n' "${SURVIVORS[@]}" >&2
  exit 1
fi
