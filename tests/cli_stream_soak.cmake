# CTest script: streaming extraction soak. A `semdrift stream` run publishes
# one generation per epoch into a live `serve --listen --publish-dir` while 4
# concurrent client processes query across the generation swaps. Determinism
# makes the check exact: the stream is run twice with identical flags — the
# first (offline) pass records every epoch's snapshot and its one-shot
# answers; the second pass publishes live. Each client answer is then diffed
# against the one-shot answer of the generation that served it (swap-raced
# answers must match *some* epoch). The script also asserts at least 5 live
# swaps happened, that the server survives SIGTERM cleanly, and — batch
# differential at the CLI level — that the final published image is
# byte-identical to a one-shot `semdrift run` over the full corpus.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
find_program(SH sh REQUIRED)

set(EPOCHS 6)

execute_process(
  COMMAND ${CLI} generate --scale 0.02 --seed 31
          --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (${rc}): ${out} ${err}")
endif()

# Batch reference over the full corpus.
execute_process(
  COMMAND ${CLI} run --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
          --out ${WORK_DIR}/t.tsv --snapshot-out ${WORK_DIR}/batch.bin
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run failed (${rc}): ${out} ${err}")
endif()

# Pass 1 (offline): record each epoch's snapshot. No publish dir, no sleeps.
execute_process(
  COMMAND ${CLI} stream --world ${WORK_DIR}/w.tsv --corpus ${WORK_DIR}/c.tsv
          --epochs ${EPOCHS} --epoch-snapshots ${WORK_DIR}/es
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream pass 1 failed (${rc}): ${out} ${err}")
endif()

# The final epoch is a full rebuild: its snapshot must equal the batch image.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/es/epoch-${EPOCHS}.bin ${WORK_DIR}/batch.bin
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "final stream epoch snapshot differs from batch run image")
endif()

# Query workload: a live pair from the batch taxonomy plus a NOT_FOUND probe.
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
  "instances-of\tno such concept"
)
list(LENGTH queries num_queries)
math(EXPR last_query "${num_queries} - 1")

# Per-epoch one-shot expected answers: exp-<generation>-<query index>.txt.
# Generation numbers equal epoch numbers (one publish per epoch).
foreach(gen RANGE 1 ${EPOCHS})
  set(qi 0)
  foreach(q IN LISTS queries)
    string(REPLACE "\t" ";" argv "${q}")
    execute_process(
      COMMAND ${CLI} query --snapshot ${WORK_DIR}/es/epoch-${gen}.bin ${argv}
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    file(WRITE ${WORK_DIR}/exp-${gen}-${qi}.txt "${out}")
    math(EXPR qi "${qi} + 1")
  endforeach()
endforeach()

# Pass 2 (live): same stream flags plus a publish dir and an inter-epoch
# sleep that gives the 50ms watcher time to swap each generation in.
set(PUB ${WORK_DIR}/pub)
file(MAKE_DIRECTORY ${PUB})
execute_process(
  COMMAND ${SH} -c "'${CLI}' stream --world '${WORK_DIR}/w.tsv' --corpus '${WORK_DIR}/c.tsv' --epochs ${EPOCHS} --publish-dir '${PUB}' --epoch-sleep-ms 400 > '${WORK_DIR}/stream.log' 2>&1 & echo $!"
  RESULT_VARIABLE rc OUTPUT_VARIABLE stream_pid)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch stream pass 2 (${rc})")
endif()
string(STRIP "${stream_pid}" stream_pid)

# The server needs generation 1 on disk before it can start serving.
set(ready FALSE)
foreach(attempt RANGE 300)
  if(EXISTS ${PUB}/snap-1.bin)
    set(ready TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT ready)
  file(READ ${WORK_DIR}/stream.log stream_log)
  message(FATAL_ERROR "stream never published snap-1.bin: ${stream_log}")
endif()

set(SOCK ${WORK_DIR}/serve.sock)
file(REMOVE ${SOCK})
execute_process(
  COMMAND ${SH} -c "'${CLI}' serve --listen 'unix:${SOCK}' --publish-dir '${PUB}' --poll-ms 50 > '${WORK_DIR}/server.log' 2>&1 & echo $!"
  RESULT_VARIABLE rc OUTPUT_VARIABLE server_pid)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch server (${rc})")
endif()
string(STRIP "${server_pid}" server_pid)

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

# 4 closed-loop clients querying until the publisher exits (so they overlap
# every remaining swap), then one final sweep at the settled generation.
# Answer checking: bracket each query with `stats` generation reads — if the
# generation held steady the answer must equal that generation's one-shot
# answer exactly; if a swap raced the query it must still equal *some*
# epoch's answer (never a torn or mixed result).
foreach(client RANGE 1 4)
  set(script "check_one() {\n")
  string(APPEND script "  idx=$1; shift\n")
  string(APPEND script "  g1=$('${CLI}' query --connect 'unix:${SOCK}' stats 2>/dev/null | sed -n 's/.*\\tgeneration=\\([0-9]*\\)\\t.*/\\1/p')\n")
  string(APPEND script "  '${CLI}' query --connect 'unix:${SOCK}' \"$@\" > '${WORK_DIR}/client${client}-ans.txt' 2>/dev/null\n")
  string(APPEND script "  g2=$('${CLI}' query --connect 'unix:${SOCK}' stats 2>/dev/null | sed -n 's/.*\\tgeneration=\\([0-9]*\\)\\t.*/\\1/p')\n")
  string(APPEND script "  if [ -n \"$g1\" ] && [ \"$g1\" = \"$g2\" ]; then\n")
  string(APPEND script "    if ! cmp -s '${WORK_DIR}/client${client}-ans.txt' \"${WORK_DIR}/exp-$g1-$idx.txt\"; then\n")
  string(APPEND script "      echo \"generation $g1 query $idx diverged from one-shot answer\" >> '${WORK_DIR}/client${client}-errors.txt'\n")
  string(APPEND script "    fi\n")
  string(APPEND script "  else\n")
  string(APPEND script "    ok=0\n")
  string(APPEND script "    for k in $(seq 1 ${EPOCHS}); do\n")
  string(APPEND script "      cmp -s '${WORK_DIR}/client${client}-ans.txt' \"${WORK_DIR}/exp-$k-$idx.txt\" && ok=1\n")
  string(APPEND script "    done\n")
  string(APPEND script "    if [ $ok -ne 1 ]; then\n")
  string(APPEND script "      echo \"query $idx answer matches no epoch (swap race)\" >> '${WORK_DIR}/client${client}-errors.txt'\n")
  string(APPEND script "    fi\n")
  string(APPEND script "  fi\n")
  string(APPEND script "}\n")
  string(APPEND script "sweep() {\n")
  set(qi 0)
  foreach(q IN LISTS queries)
    string(REPLACE "\t" "' '" shell_args "${q}")
    string(APPEND script "  check_one ${qi} '${shell_args}'\n")
    math(EXPR qi "${qi} + 1")
  endforeach()
  string(APPEND script "}\n")
  string(APPEND script "rm -f '${WORK_DIR}/client${client}-errors.txt'\n")
  string(APPEND script "while kill -0 ${stream_pid} 2>/dev/null; do sweep; sleep 0.2; done\n")
  string(APPEND script "sweep\n")
  file(WRITE ${WORK_DIR}/client${client}.sh "${script}")
endforeach()
set(spawn "")
foreach(client RANGE 1 4)
  string(APPEND spawn "${SH} '${WORK_DIR}/client${client}.sh' & ")
endforeach()
string(APPEND spawn "wait")
execute_process(
  COMMAND ${SH} -c "${spawn}"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "soak clients failed (${rc}): ${err}")
endif()

# The publisher must have exited cleanly.
execute_process(
  COMMAND ${SH} -c "while kill -0 ${stream_pid} 2>/dev/null; do sleep 0.1; done")
file(READ ${WORK_DIR}/stream.log stream_log)
if(NOT stream_log MATCHES "stream done")
  message(FATAL_ERROR "stream pass 2 did not finish cleanly: ${stream_log}")
endif()

# Zero divergence across every client.
foreach(client RANGE 1 4)
  if(EXISTS ${WORK_DIR}/client${client}-errors.txt)
    file(READ ${WORK_DIR}/client${client}-errors.txt errors)
    message(FATAL_ERROR "client ${client} saw diverging answers:\n${errors}")
  endif()
endforeach()

# Let the watcher catch the final publish, then require >= 5 live swaps
# (6 generations were published; the initial install also counts).
execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.5)
execute_process(
  COMMAND ${CLI} query --connect unix:${SOCK} metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE metrics_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "metrics over the socket failed (${rc}): ${metrics_out}")
endif()
string(REGEX MATCH "\"serve\\.swap\\.count\":([0-9]+)" swap_match "${metrics_out}")
if(NOT swap_match)
  message(FATAL_ERROR "metrics missing serve.swap.count: ${metrics_out}")
endif()
if(CMAKE_MATCH_1 LESS 5)
  message(FATAL_ERROR "expected >= 5 live swaps, got ${CMAKE_MATCH_1}")
endif()

# The served end state is the published final generation, which is the batch
# image byte for byte.
execute_process(
  COMMAND ${CLI} query --connect unix:${SOCK} stats
  RESULT_VARIABLE rc OUTPUT_VARIABLE stats_out)
if(NOT stats_out MATCHES "generation=${EPOCHS}\t")
  message(FATAL_ERROR "server did not reach generation ${EPOCHS}: ${stats_out}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${PUB}/snap-${EPOCHS}.bin ${WORK_DIR}/batch.bin
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "published final generation differs from batch image")
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
