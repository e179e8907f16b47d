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
# The AVX2 kernel mutants only bite on hosts that run the AVX2 kernels, and
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

mutant "matrix signature round 1 adds decay to the node's own label" \
  src/signature/builders.cc \
  'row[g.label(static_cast<graph::NodeId>(u))] = 1.0f;' \
  'row[g.label(static_cast<graph::NodeId>(u))] = 1.0f + decay;'

mutant "AVX2 signature propagation drops a tail lane" \
  src/signature/kernels_avx2.cc \
  '_mm256_set1_epi32(static_cast<int>(last_lanes)),' \
  '_mm256_set1_epi32(static_cast<int>(last_lanes) - 1),'

mutant "row hash zero-run fold one power off" \
  src/signature/signature_matrix.cc \
  '    zeros = 8 - bytes;' \
  '    zeros = 9 - bytes;'

mutant "CSR edge-label symmetry check skipped on .psnap load" \
  src/graph/graph_builder.cc \
  'if (edge_labels[rev] != edge_labels[i]) {' \
  'if (false) {'

mutant "admission counted after enqueue" \
  src/service/service.cc \
  $'  metrics_.RecordAdmitted(num_queries);\n  // Chaos hook' \
  $'  // Chaos hook' \
  $'  // Chaos hook: the submitter descheduled' \
  $'  metrics_.RecordAdmitted(num_queries);\n  // Chaos hook: the submitter descheduled' \
  $'    metrics_.UndoAdmitted(num_queries);\n' \
  ''

mutant "shed admission not revoked" \
  src/service/service.cc \
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

mutant "untried training sample nodes stay settled" \
  src/core/smart_psi.cc \
  $'        settled[train_indices[k]] = 0;\n' \
  ''

mutant "training minimum ignored" \
  src/core/smart_psi.cc \
  'if (trained >= kMinTrainingNodes &&' \
  'if ('

mutant "kSmart request with a limit is evaluated" \
  src/service/service.cc \
  '(request.method == Method::kSmart && request.max_valid_nodes > 0)) {' \
  '(false && request.max_valid_nodes > 0)) {'

mutant "batch members share the first member's limit" \
  src/service/service.cc \
  $'    q.graph.clear();\n' \
  $'    q.graph.clear();\n    q.max_valid_nodes = request.queries[0].max_valid_nodes;\n'

mutant "batch structure key ignores edge labels" \
  src/core/batch_context.cc \
  $'key += \':\';\n        key += std::to_string(elabel);\n' \
  $'key += \':\';\n'

mutant "ReduceSupport reads past the first short pivot" \
  src/fsm/support.cc \
  $'    if (count < min_support) break;  // the in-process path stops here too\n' \
  ''

mutant "Submit drops the request's graph name" \
  src/service/service.cc \
  $'  batch.graph = std::move(request.graph);\n' \
  ''

mutant "max_steps ignored" \
  src/match/psi_evaluator.cc \
  'options.max_steps == 0 ? UINT64_MAX : steps_ + options.max_steps;' \
  'options.max_steps == 0 ? UINT64_MAX : UINT64_MAX;'

mutant "optimistic second pass gets a fresh budget" \
  src/match/psi_evaluator.cc \
  $'  full.mode = PsiMode::kOptimistic;\n' \
  $'  full.mode = PsiMode::kOptimistic;\n  step_limit_ = options.max_steps == 0 ? UINT64_MAX : steps_ + options.max_steps;\n'

mutant "cache records the first attempt's steps, not the completing run's" \
  src/core/smart_psi.cc \
  $'      Outcome outcome;\n' \
  $'      Outcome outcome;\n      uint64_t first_steps = 0;\n' \
  $'        outcome = run(predicted_valid, max_steps);\n' \
  $'        outcome = run(predicted_valid, max_steps);\n        first_steps = evaluator.steps();\n' \
  'CacheSteps(evaluator.steps())' \
  'CacheSteps(first_steps != 0 ? first_steps : evaluator.steps())'

mutant "cache mismatch not counted" \
  src/core/smart_psi.cc \
  'if (predicted_valid != actual_valid) ++ws.cache_mismatches;' \
  'if (false) ++ws.cache_mismatches;'

echo "== $KILLED killed, ${#SURVIVORS[@]} survived"
if [[ ${#SURVIVORS[@]} -gt 0 ]]; then
  printf 'SURVIVOR: %s\n' "${SURVIVORS[@]}" >&2
  exit 1
fi
