#!/usr/bin/env bash
# Tier-1 verification, split into named stages so CI jobs can run each
# in isolation while `tools/verify.sh` with no arguments still runs the
# whole ladder locally:
#
#   static    serelin_lint + clang -Wthread-safety build + clang-tidy
#   tier1     regular build + full test suite
#   examples  oracle-verified pipeline retime over every bundled circuit
#   tsan      parallel determinism + tracer suites under ThreadSanitizer
#   asan      full suite under ASan+UBSan
#   campaign  the property campaigns under ASan+UBSan (serelin_campaign):
#             self-check, faults, solvers and crash campaigns, then replay
#             of the found corpus and of the malformed-input corpus
#   serve     job-server protocol smoke under ASan+UBSan: Serve* suites,
#             then a live daemon driven by serve_bench (mixed concurrent
#             jobs, duplicate cache hits, saturation backpressure),
#             SIGTERM drain (exit 78) and double-bind rejection (exit 79)
#
#   tools/verify.sh [--fast] [--skip-static] [--skip-tsan] [--skip-asan]
#                   [--stage NAME]...
#
# --stage may repeat; without it every stage runs (minus the --skip-*
# ones; --skip-asan also skips the campaign and serve stages, which need
# the ASan build — so the default list then runs no crash campaign).
# --fast restricts ctest to the `fast` label (the exhaustive-optimality
# and end-to-end suites are labelled `slow`; see tests/CMakeLists.txt).
# Run from the repository root. Exits non-zero on the first failure.
#
# The static stage (docs/STATIC_ANALYSIS.md) degrades gracefully: the
# serelin_lint pass always runs, the -Wthread-safety build and clang-tidy
# run only when clang++/clang-tidy are installed (CI installs both; a
# gcc-only box still gets the contract analyzer). Set
# SERELIN_TIDY_BASE to a git ref to tidy only the files changed since
# that ref, and SERELIN_LINT_BASE to restrict the analyzer's *reported*
# findings to those files (--only; analysis stays whole-tree) — the PR
# mode of the `static` CI job. SERELIN_LINT_SKIP=1 skips the analyzer
# inside the stage (the CI job times it as its own budgeted step).
set -euo pipefail

cd "$(dirname "$0")/.."
SKIP_STATIC=0
SKIP_TSAN=0
SKIP_ASAN=0
STAGES=()
CTEST_ARGS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) CTEST_ARGS=(-L fast) ;;
    --skip-static) SKIP_STATIC=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --stage)
      [[ $# -ge 2 ]] || { echo "--stage needs a name" >&2; exit 64; }
      STAGES+=("$2")
      shift ;;
    *) echo "usage: tools/verify.sh [--fast] [--skip-static] [--skip-tsan]" \
            "[--skip-asan]" \
            "[--stage static|tier1|examples|tsan|asan|campaign|serve]..." >&2
       exit 64 ;;
  esac
  shift
done

if [[ ${#STAGES[@]} -eq 0 ]]; then
  STAGES=()
  [[ "$SKIP_STATIC" == 1 ]] || STAGES+=(static)
  STAGES+=(tier1 examples)
  [[ "$SKIP_TSAN" == 1 ]] || STAGES+=(tsan)
  [[ "$SKIP_ASAN" == 1 ]] || STAGES+=(asan campaign serve)
fi

stage_static() {
  echo "== static: serelin_lint + thread-safety + clang-tidy =="
  cmake -B build -S . > /dev/null
  cmake --build build -j"$(nproc)" --target serelin_lint
  # 1/3 — the contract analyzer: determinism, registry and flow contracts
  # over the whole tree (header self-sufficiency is a build step, the
  # serelin_header_check target). SERELIN_LINT_BASE narrows the *reported*
  # findings to a PR's changed files; the analysis itself is always
  # whole-tree, since lock cycles and registry pairings span TUs.
  if [[ "${SERELIN_LINT_SKIP:-0}" == 1 ]]; then
    echo "static: SERELIN_LINT_SKIP=1; analyzer runs in its own CI step" >&2
  else
    local lint_args=(--root .)
    if [[ -n "${SERELIN_LINT_BASE:-}" ]]; then
      local f
      while read -r f; do
        [[ -f "$f" ]] && lint_args+=(--only "$f")
      done < <(git diff --name-only "$SERELIN_LINT_BASE" -- src tools docs)
    fi
    ./build/tools/serelin_lint "${lint_args[@]}"
  fi

  # 2/3 — compile-time race checking: serelin_warnings promotes
  # -Wthread-safety to an error under clang, so a clean clang build *is*
  # the proof that all annotated lock discipline holds.
  if command -v clang++ > /dev/null 2>&1; then
    cmake -B build-clang -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DSERELIN_WERROR=ON > /dev/null
    cmake --build build-clang -j"$(nproc)"
  else
    echo "static: clang++ not installed; skipping the -Wthread-safety build" >&2
  fi

  # 3/3 — clang-tidy over the compile database (.clang-tidy pins the
  # profile; WarningsAsErrors makes any finding fatal). SERELIN_TIDY_BASE
  # narrows the file set to a PR's changed files.
  if command -v clang-tidy > /dev/null 2>&1; then
    local db=build
    [[ -f build-clang/compile_commands.json ]] && db=build-clang
    local files
    if [[ -n "${SERELIN_TIDY_BASE:-}" ]]; then
      files=$(git diff --name-only "$SERELIN_TIDY_BASE" -- \
                'src/*.cpp' 'tools/*.cpp' | while read -r f; do
                [[ -f "$f" ]] && echo "$f"; done)
    else
      files=$(ls src/*/*.cpp tools/*.cpp)
    fi
    if [[ -z "$files" ]]; then
      echo "static: no files to tidy"
    else
      echo "$files" | xargs -P "$(nproc)" -n 4 clang-tidy -p "$db" --quiet
    fi
  else
    echo "static: clang-tidy not installed; skipping" >&2
  fi
}

stage_tier1() {
  echo "== tier1: build + ctest =="
  cmake -B build -S . > /dev/null
  cmake --build build -j"$(nproc)"
  (cd build && ctest --output-on-failure -j"$(nproc)" "${CTEST_ARGS[@]}")
}

stage_examples() {
  echo "== examples: verified pipeline retime over the bundled circuits =="
  # Every bundled circuit must come back oracle-verified through the
  # graceful-degradation pipeline: exit 0 (converged) and 75 (degraded but
  # verified) are fine, anything else — in particular 76, no stage
  # verified — fails the script. Journals land in build/journals/.
  cmake -B build -S . > /dev/null
  cmake --build build -j"$(nproc)" --target serelin_cli
  mkdir -p build/journals
  for circuit in examples/circuits/*.bench examples/circuits/*.blif; do
    [[ -e "$circuit" ]] || continue
    stem="$(basename "${circuit%.*}")"
    status=0
    ./build/tools/serelin_cli retime "$circuit" \
        "build/journals/$stem.out.${circuit##*.}" \
        --verify --deadline 60 \
        --journal "build/journals/$stem.jsonl" > /dev/null || status=$?
    if [[ "$status" != 0 && "$status" != 75 ]]; then
      echo "verify: $circuit failed the oracle pipeline (exit $status)" >&2
      exit 1
    fi
    echo "  $stem: ok (exit $status)"
  done
}

stage_tsan() {
  echo "== tsan: parallel + tracer suites under ThreadSanitizer =="
  cmake -B build-tsan -S . -DSERELIN_TSAN=ON > /dev/null
  cmake --build build-tsan -j"$(nproc)" --target serelin_tests
  # TSAN aborts with a non-zero exit on any data race (halt_on_error not
  # needed: the default exit code 66 on detected races fails the script).
  TSAN_OPTIONS="exitcode=66" \
    ./build-tsan/tests/serelin_tests --gtest_filter='Parallel*:Trace*:Metrics*'
}

stage_asan() {
  echo "== asan: full suite under ASan+UBSan =="
  cmake -B build-asan -S . -DSERELIN_ASAN=ON > /dev/null
  cmake --build build-asan -j"$(nproc)"
  (cd build-asan && ctest --output-on-failure -j"$(nproc)" "${CTEST_ARGS[@]}")
}

stage_campaign() {
  echo "== campaign: property campaigns under ASan+UBSan =="
  cmake -B build-asan -S . -DSERELIN_ASAN=ON > /dev/null
  cmake --build build-asan -j"$(nproc)" --target serelin_campaign
  local campaign=./build-asan/tools/serelin_campaign
  # -fno-sanitize-recover=all makes any UB abort, so a clean exit
  # certifies no crash, no UB and no property failure. Failures exit 77
  # and persist their counterexample (docs/ROBUSTNESS.md §6).
  # 1/6 — self-check: planted solver faults must be caught, shrunk and
  # replayed; a torn journal, a damaged checkpoint and a mini kill
  # campaign must be detected and survived. Detection power first.
  "$campaign" self-check --out build-asan/campaign-self-check
  # 2/6 — faults: seeded hostile bytes through parse -> validate ->
  # deadline-bounded retime -> the independent result oracle.
  "$campaign" faults --seed 1 --iters 2000 --max-seconds 30
  # 3/6 — solvers: every engine must agree on every generated circuit.
  # SERELIN_FUZZ_* lets the nightly job scale up without editing this
  # script; a divergence persists its shrunk repro in tests/corpus/found/.
  "$campaign" solvers \
      --seed "${SERELIN_FUZZ_SEED:-1}" \
      --iters "${SERELIN_FUZZ_ITERS:-400}" \
      --max-seconds "${SERELIN_FUZZ_SECONDS:-90}" \
      --out tests/corpus/found
  # 4/6 — crash: fork the solve, SIGKILL it at seeded crash points
  # (including inside atomic write windows and between journal frame
  # halves), resume, and demand a bit-identical, oracle-verified result
  # with zero torn artifacts. A failing trial keeps its scratch directory.
  "$campaign" crash \
      --seed "${SERELIN_CRASH_SEED:-1}" \
      --iters "${SERELIN_CRASH_TRIALS:-4}" \
      --kills "${SERELIN_CRASH_KILLS:-40}" \
      --max-seconds "${SERELIN_CRASH_SECONDS:-90}" \
      --out build-asan/campaign-crash
  # 5/6 and 6/6 — replay: every found counterexample and every malformed
  # input through the faults battery, and every solvers entry against its
  # sidecar's expect: line (a fixed divergence prints FIXED and stays
  # green; an expected-clean entry that diverges exits 77).
  "$campaign" replay tests/corpus/found
  "$campaign" replay tests/corpus
}

stage_serve() {
  echo "== serve: job-server protocol smoke under ASan+UBSan =="
  cmake -B build-asan -S . -DSERELIN_ASAN=ON > /dev/null
  cmake --build build-asan -j"$(nproc)" \
      --target serelin_tests serelin_serve serve_bench
  # 1/3 — the Serve* suites: wire-protocol hardening, cache determinism,
  # backpressure, cancel, drain — all in-process, all under the sanitizer.
  (cd build-asan && ctest --output-on-failure -R '^Serve' -j"$(nproc)")

  # 2/3 — a live daemon driven end-to-end: mixed concurrent jobs, verbatim
  # duplicate resubmissions answered from the cache (counter-checked by
  # serve_bench, exit 77 on any mismatch), saturation producing explicit
  # backpressure rejections. Then SIGTERM must drain gracefully (exit 78)
  # and unlink the socket. Workers/queue sizes are passed to both sides so
  # the bench's saturation arithmetic matches the server's actual bounds.
  local sock="build-asan/serve-smoke.sock"
  rm -f "$sock"
  ./build-asan/tools/serelin_serve --socket "$sock" --workers 4 \
      --max-queue 32 --cache 256 --scratch build-asan &
  local server_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "$sock" ]] && break
    sleep 0.1
  done
  [[ -S "$sock" ]] || { echo "serve: daemon never bound $sock" >&2; exit 1; }

  # 3/3 folded in while the daemon is live: a second bind of the same
  # socket must be rejected with the registered exit code 79.
  local bind_status=0
  ./build-asan/tools/serelin_serve --socket "$sock" --workers 1 \
      2> /dev/null || bind_status=$?
  if [[ "$bind_status" != 79 ]]; then
    echo "serve: double bind exited $bind_status, want 79" >&2
    kill "$server_pid" 2> /dev/null || true
    exit 1
  fi

  ./build-asan/tools/serve_bench --socket "$sock" --clients 8 --jobs 4 \
      --dup-every 3 --workers 4 --max-queue 32 \
      --out build-asan/BENCH_serve_smoke.json

  kill -TERM "$server_pid"
  local drain_status=0
  wait "$server_pid" || drain_status=$?
  if [[ "$drain_status" != 78 ]]; then
    echo "serve: SIGTERM drain exited $drain_status, want 78" >&2
    exit 1
  fi
  if [[ -S "$sock" ]]; then
    echo "serve: drained server left its socket behind" >&2
    exit 1
  fi
}

for stage in "${STAGES[@]}"; do
  case "$stage" in
    static) stage_static ;;
    tier1) stage_tier1 ;;
    examples) stage_examples ;;
    tsan) stage_tsan ;;
    asan) stage_asan ;;
    campaign) stage_campaign ;;
    serve) stage_serve ;;
    *) echo "verify: unknown stage '$stage'" >&2; exit 64 ;;
  esac
done
echo "verify: OK (${STAGES[*]})"
