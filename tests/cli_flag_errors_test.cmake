# Runs the command-line tools with flag values their configuration
# validators reject. Each run must exit with the tool's flag-error code
# (2 for lbsq_sim, 1 for lbsq_server), print nothing on stdout and exactly
# one line on stderr — never die on a signal from a failed check.
#
#   cmake -DLBSQ_SIM=build/tools/lbsq_sim -DLBSQ_SERVER=build/tools/lbsq_server \
#         -P tests/cli_flag_errors_test.cmake

foreach(tool LBSQ_SIM LBSQ_SERVER)
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

# lbsq_server: ServerOptions rules (flag error code 1, as for
# --pool-pages=0).
expect_flag_error("${LBSQ_SERVER}" 1 --pool-pages=0)
expect_flag_error("${LBSQ_SERVER}" 1 --workers=0)
expect_flag_error("${LBSQ_SERVER}" 1 --queue-capacity=0)
expect_flag_error("${LBSQ_SERVER}" 1 --inflight-limit=0)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} flag-error case(s) failed")
endif()
