# Runs the command-line tools with flag values their configuration
# validators reject. Each run must exit with the tool's flag-error code
# (2 for lbsq_sim and lbsq_store_build, 1 for lbsq_server), print nothing on
# stdout and exactly one line on stderr — never die on a signal from a
# failed check.
#
#   cmake -DLBSQ_SIM=build/tools/lbsq_sim -DLBSQ_SERVER=build/tools/lbsq_server \
#         -DLBSQ_STORE_BUILD=build/tools/lbsq_store_build \
#         -P tests/cli_flag_errors_test.cmake

foreach(tool LBSQ_SIM LBSQ_SERVER LBSQ_STORE_BUILD)
  if(NOT EXISTS "${${tool}}")
    message(FATAL_ERROR "${tool} must name the built tool (got '${${tool}}')")
  endif()
endforeach()

set(failures 0)

function(expect_flag_error tool code)
  execute_process(COMMAND "${tool}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(STRIP "${err}" message)
  string(FIND "${message}" "\n" newline)
  if(NOT rc STREQUAL "${code}" OR NOT out STREQUAL "" OR message STREQUAL ""
     OR NOT newline EQUAL -1)
    message(SEND_ERROR "${tool} ${ARGN}: exit '${rc}', want ${code} with "
                       "one stderr line and no stdout\nstdout:\n${out}\n"
                       "stderr:\n${err}")
    math(EXPR count "${failures} + 1")
    set(failures ${count} PARENT_SCOPE)
  else()
    message(STATUS "ok: ${ARGN} -> ${rc}: ${message}")
  endif()
  set(last_error "${message}" PARENT_SCOPE)
endfunction()

# lbsq_sim: SimConfig rules (flag error code 2, as for --threads=0).
expect_flag_error("${LBSQ_SIM}" 2 --threads=0)
expect_flag_error("${LBSQ_SIM}" 2 --hops=0)
expect_flag_error("${LBSQ_SIM}" 2 --duration=0)
expect_flag_error("${LBSQ_SIM}" 2 --warmup=-1)
expect_flag_error("${LBSQ_SIM}" 2 --fault-loss=1.5)
expect_flag_error("${LBSQ_SIM}" 2 --fault-burst-loss=2)
expect_flag_error("${LBSQ_SIM}" 2 --update-interval-events=-3)
expect_flag_error("${LBSQ_SIM}" 2 --shards=4 --fault-loss=0.1)
expect_flag_error("${LBSQ_SIM}" 2 --shards=4 --check
                  --update-interval-events=8)
expect_flag_error("${LBSQ_SIM}" 2 --world=3 --warmup=10 --duration=10
                  --threads=4 --check --policy=collective)

# Dataset flags: every value must be finite, and a window has a positive
# size.
expect_flag_error("${LBSQ_SIM}" 2 --k=nan)
expect_flag_error("${LBSQ_SIM}" 2 --world=inf)
expect_flag_error("${LBSQ_SIM}" 2 --pois=nan)
expect_flag_error("${LBSQ_SIM}" 2 --tx=inf)
expect_flag_error("${LBSQ_SIM}" 2 --query=window --window-pct=-5)
expect_flag_error("${LBSQ_SIM}" 2 --window-pct=0)
expect_flag_error("${LBSQ_SIM}" 2 --window-pct=nan)
expect_flag_error("${LBSQ_STORE_BUILD}" 2 --out=never-written.lbsq --world=nan)
expect_flag_error("${LBSQ_STORE_BUILD}" 2 --out=never-written.lbsq --world=inf)
expect_flag_error("${LBSQ_STORE_BUILD}" 2 --out=never-written.lbsq --pois=inf)
expect_flag_error("${LBSQ_SERVER}" 1 --world=nan)
expect_flag_error("${LBSQ_SERVER}" 1 --k=inf)

# lbsq_server: ServerOptions rules and its own flags (flag error code 1).
expect_flag_error("${LBSQ_SERVER}" 1 --workers=0)
expect_flag_error("${LBSQ_SERVER}" 1 --queue-capacity=0)
expect_flag_error("${LBSQ_SERVER}" 1 --inflight-limit=0)
expect_flag_error("${LBSQ_SERVER}" 1 --port=65536)
expect_flag_error("${LBSQ_SERVER}" 1 --port=-1)
# Every numeric server flag is a whole number: no negative budget wraps to
# SIZE_MAX, and no trailing junk is ignored.
expect_flag_error("${LBSQ_SERVER}" 1 --queue-capacity=-1)
expect_flag_error("${LBSQ_SERVER}" 1 --inflight-limit=-1)
expect_flag_error("${LBSQ_SERVER}" 1 --retry-ms=-5)
expect_flag_error("${LBSQ_SERVER}" 1 --workers=2x)
expect_flag_error("${LBSQ_SERVER}" 1 --run-seconds=1x)

# A store that cannot be opened is refused with its typed status.
expect_flag_error("${LBSQ_SERVER}" 1 --store=no-such-dir/missing.lbsq)
if(NOT last_error MATCHES "io-error")
  message(SEND_ERROR "--store=<missing file>: want 'io-error' on stderr, "
                     "got '${last_error}'")
  math(EXPR failures "${failures} + 1")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} flag-error case(s) failed")
endif()
