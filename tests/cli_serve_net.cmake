# CTest script: network serving end-to-end. Starts `serve --listen` on a
# unix socket with mmap snapshot loading, then fires 8 concurrent
# `query --connect` clients whose answers must be byte-identical to one-shot
# `query --snapshot` answers over the same file. Also checks that `stats`
# counts every request exactly once and that the server shuts down cleanly
# on SIGTERM (unlinking its socket).
file(MAKE_DIRECTORY ${WORK_DIR})
find_program(SH sh REQUIRED)

execute_process(
  COMMAND ${CLI} generate --scale 0.05 --seed 23
          --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}): ${out} ${err}")
endif()

execute_process(
  COMMAND ${CLI} run --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
          --out ${WORK_DIR}/t.tsv --snapshot-out ${WORK_DIR}/s.bin
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run failed (${rc}): ${out} ${err}")
endif()

# A live (concept, instance) pair so clients exercise OK answers.
file(STRINGS ${WORK_DIR}/t.tsv taxonomy_lines LIMIT_COUNT 2)
list(GET taxonomy_lines 1 first_pair)
string(REPLACE "\t" ";" first_pair_fields "${first_pair}")
list(GET first_pair_fields 0 concept_name)
list(GET first_pair_fields 1 instance_name)

set(queries
  "instances-of\t${concept_name}\t5"
  "concepts-of\t${instance_name}"
  "is-a\t${instance_name}\t${concept_name}"
  "drift-score\t${instance_name}\t${concept_name}"
  "mutex\t${concept_name}\tasian country"
  "instances-of\tno such concept"
)

# One-shot expected answers (the NOT_FOUND probe exits non-zero; the
# printed answer is still the contract).
set(expected "")
foreach(q IN LISTS queries)
  string(REPLACE "\t" ";" argv "${q}")
  execute_process(
    COMMAND ${CLI} query --snapshot ${WORK_DIR}/s.bin ${argv}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(APPEND expected "${out}")
endforeach()

# Start the server in the background on a unix socket.
set(SOCK ${WORK_DIR}/serve.sock)
file(REMOVE ${SOCK})
execute_process(
  COMMAND ${SH} -c "'${CLI}' serve --snapshot '${WORK_DIR}/s.bin' --mmap --listen 'unix:${SOCK}' > '${WORK_DIR}/server.log' 2>&1 & echo $!"
  RESULT_VARIABLE rc OUTPUT_VARIABLE server_pid)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch server (${rc})")
endif()
string(STRIP "${server_pid}" server_pid)

# Wait for the listening socket to appear.
set(ready FALSE)
foreach(attempt RANGE 100)
  if(EXISTS ${SOCK})
    set(ready TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT ready)
  file(READ ${WORK_DIR}/server.log server_log)
  message(FATAL_ERROR "server never created ${SOCK}: ${server_log}")
endif()

# 8 concurrent clients, each running the full query list against the
# socket; every client's transcript must match the one-shot answers.
set(spawn "")
foreach(client RANGE 1 8)
  set(script "rm -f '${WORK_DIR}/client${client}.txt'\n")
  foreach(q IN LISTS queries)
    string(REPLACE "\t" "' '" shell_args "${q}")
    string(APPEND script
      "'${CLI}' query --connect 'unix:${SOCK}' '${shell_args}' >> '${WORK_DIR}/client${client}.txt'\n")
  endforeach()
  file(WRITE ${WORK_DIR}/client${client}.sh "${script}")
  string(APPEND spawn "${SH} '${WORK_DIR}/client${client}.sh' & ")
endforeach()
string(APPEND spawn "wait")
execute_process(
  COMMAND ${SH} -c "${spawn}"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "concurrent clients failed (${rc}): ${err}")
endif()
foreach(client RANGE 1 8)
  file(READ ${WORK_DIR}/client${client}.txt got)
  if(NOT got STREQUAL expected)
    message(FATAL_ERROR "client ${client} answers differ from one-shot answers.\n"
            "got:\n${got}\nexpected:\n${expected}")
  endif()
endforeach()

# Stats: every request counted once, and no shard-count field (serving has
# one dispatch path).
execute_process(
  COMMAND ${CLI} query --connect unix:${SOCK} stats
  RESULT_VARIABLE rc OUTPUT_VARIABLE stats_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stats over the socket failed (${rc}): ${stats_out}")
endif()
if(stats_out MATCHES "shards=")
  message(FATAL_ERROR "stats still carries a shards= field: ${stats_out}")
endif()
# 8 clients x 1 is-a each = exactly 8 recorded calls.
if(NOT stats_out MATCHES "is-a=count:8,")
  message(FATAL_ERROR "stats lost or double-counted is-a calls: ${stats_out}")
endif()

# Exit-code contract holds over the wire too.
execute_process(
  COMMAND ${CLI} query --connect unix:${SOCK} instances-of "no such concept"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "query --connect exit code for NOT_FOUND should be 3, got ${rc}")
endif()

# Graceful shutdown: SIGTERM stops the server and unlinks the socket.
execute_process(COMMAND ${SH} -c "kill -TERM ${server_pid}")
set(stopped FALSE)
foreach(attempt RANGE 100)
  execute_process(COMMAND ${SH} -c "kill -0 ${server_pid} 2>/dev/null"
                  RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    set(stopped TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT stopped)
  execute_process(COMMAND ${SH} -c "kill -KILL ${server_pid}")
  message(FATAL_ERROR "server did not exit on SIGTERM")
endif()
if(EXISTS ${SOCK})
  message(FATAL_ERROR "server left its unix socket behind after SIGTERM")
endif()
