# Runs lbsq_sim on configurations the benchmark does not exercise and
# compares its stdout with golden files. Every line is pinned except the
# wall-time and engine lines, which depend on the host and the thread count.
# The goldens hold answers, slot costs and digests, so any difference is a
# behavior change; regenerate a golden only for an intended one, with the
# command below (the same flags, --threads=2 included, as expect_golden).
#
#   cmake -DLBSQ_SIM=build/tools/lbsq_sim -DGOLDEN_DIR=tests/golden \
#         -P tests/sim_golden_test.cmake
#
# Regenerating one golden:
#
#   build/tools/lbsq_sim --no-approximate --warmup=10 --duration=10 \
#       --threads=2 <flags> | grep -v '^wall time\|^engine' \
#       > tests/golden/<name>.txt

if(NOT EXISTS "${LBSQ_SIM}")
  message(FATAL_ERROR "LBSQ_SIM must name the built tool (got '${LBSQ_SIM}')")
endif()

set(failures 0)

# Drops the host-dependent lines from `text`.
function(strip_host_lines text out_var)
  string(REGEX REPLACE "\n(wall time|engine)[^\n]*" "" stripped "\n${text}")
  set(${out_var} "${stripped}" PARENT_SCOPE)
endfunction()

function(expect_golden name)
  execute_process(COMMAND "${LBSQ_SIM}" --no-approximate --warmup=10
                          --duration=10 --threads=2 ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  file(READ "${GOLDEN_DIR}/${name}.txt" golden)
  strip_host_lines("${out}" got)
  strip_host_lines("${golden}" want)
  if(NOT rc STREQUAL "0" OR NOT got STREQUAL want)
    message(SEND_ERROR "${name} (${ARGN}): exit '${rc}'\n"
                       "got:${got}\nwant:${want}\nstderr:\n${err}")
    math(EXPR count "${failures} + 1")
    set(failures ${count} PARENT_SCOPE)
  else()
    message(STATUS "ok: ${name}")
  endif()
endfunction()

# The paper's literal cache policy (unchecked: it breaks the cache
# invariant by design).
expect_golden(collective_knn --world=3 --policy=collective)
# The hierarchical air index under window queries.
expect_golden(tree_window --world=3 --index=tree --query=window)
# Dense sharing with a large k: the lower-bound filter skips buckets in
# about one measured broadcast fallback in seven (90 of 666).
expect_golden(skip_heavy_knn --world=5 --tx=200 --hops=2 --csize=200 --k=20)
# Chunked (32 events per epoch) three-hop peer gathering on street-grid
# mobility under churn. The parallel engine finds each chunk's peers on a
# grid built at the chunk's first event; the peers and their order must
# equal those of a grid rebuilt at every event, which no sequential
# reference covers at this epoch size.
expect_golden(manhattan_hops3_churn --world=4 --mobility=manhattan --hops=3
              --update-interval-events=16)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} golden comparison(s) failed")
endif()
