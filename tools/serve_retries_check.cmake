# ctest driver for the `mocha_serve` report's "retries" field.
#
# "retries" counts serve-level re-executions behind the client responses,
# sum(max(0, attempts - 1)). A fault-free run never re-executes, so it must
# report 0 however many requests completed. Invoked by the
# `serve_retries_zero` test as
#   cmake -DSERVE=<mocha_serve> -P serve_retries_check.cmake

execute_process(COMMAND ${SERVE} --shards 2 --requests 30 --rate 300 --json
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "fault-free run: expected exit 0, got '${code}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT out MATCHES "\"completed\": [1-9]")
  message(FATAL_ERROR "fault-free run completed nothing:\n${out}")
endif()
if(NOT out MATCHES "\"retries\": 0,")
  message(FATAL_ERROR "fault-free run must report \"retries\": 0:\n${out}")
endif()

message(STATUS "serve retries: fault-free run reports 0")
