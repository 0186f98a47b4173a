# Golden transcripts of the hetgrid CLI (ctest entry cli_golden).
#
# Runs a fixed list of invocations, each in a fresh working directory, and
# compares the exit code, stdout and every file the run writes (--out,
# --metrics) byte for byte against tests/golden/cli/<case>.<what>. A
# successful run must leave stderr empty; a failing one must leave stdout
# empty and name the offending flag on stderr. --profile runs report
# wall-clock time, so they check only the exit code and a non-empty
# profile file.
#
#   cmake -DHETGRID=build/tools/hetgrid -DGOLDEN_DIR=tests/golden/cli \
#         -DWORK_DIR=<scratch dir> [-DRECORD=1] -P tools/cli_golden.cmake
#
# RECORD=1 rewrites the golden files from the given binary instead of
# comparing against them.

foreach(var HETGRID GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_golden: pass -D${var}=...")
  endif()
  get_filename_component(${var} "${${var}}" ABSOLUTE)
endforeach()
set(failed "")

# Compares (or, under RECORD, stores) one output against its golden file.
function(check_golden got golden)
  if(RECORD)
    configure_file("${got}" "${GOLDEN_DIR}/${golden}" COPYONLY)
    return()
  endif()
  if(NOT EXISTS "${GOLDEN_DIR}/${golden}")
    set(problem "no golden ${golden}" PARENT_SCOPE)
    return()
  endif()
  file(SHA256 "${got}" got_hash)
  file(SHA256 "${GOLDEN_DIR}/${golden}" want_hash)
  if(NOT got_hash STREQUAL want_hash)
    set(problem "${got} differs from ${GOLDEN_DIR}/${golden}" PARENT_SCOPE)
  endif()
endfunction()

# golden(<case> [EXIT <code>] [AS <case>] [STDERR <regex>] [PROFILE <file>]
#        [FILES <file>...] ARGS <arg>...)
#   EXIT     expected exit code (default 0)
#   AS       compare against another case's golden files
#   STDERR   for failing runs: a regex stderr must match
#   PROFILE  a wall-clock profile the run writes; only its existence and
#            non-emptiness are checked, and stdout is not compared
#   FILES    files the run writes, compared byte for byte
function(golden case)
  cmake_parse_arguments(G "" "EXIT;AS;STDERR;PROFILE" "FILES;ARGS" ${ARGN})
  if(NOT DEFINED G_EXIT)
    set(G_EXIT 0)
  endif()
  if(G_AS)
    set(RECORD 0)  # compare against the case recorded under that name
  else()
    set(G_AS ${case})
  endif()
  set(dir "${WORK_DIR}/${case}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${HETGRID}" ${G_ARGS}
    WORKING_DIRECTORY "${dir}"
    OUTPUT_FILE "${dir}.stdout" ERROR_FILE "${dir}.stderr"
    RESULT_VARIABLE rc TIMEOUT 30)
  file(READ "${dir}.stdout" out)
  file(READ "${dir}.stderr" err)
  set(problem "")
  if(NOT rc STREQUAL G_EXIT)
    set(problem "exit '${rc}', want ${G_EXIT}")
  elseif(NOT G_EXIT EQUAL 0)
    if(NOT out STREQUAL "")
      set(problem "a failing run printed to stdout")
    elseif(G_STDERR AND NOT err MATCHES "${G_STDERR}")
      set(problem "stderr does not match '${G_STDERR}': ${err}")
    endif()
  elseif(NOT err STREQUAL "")
    set(problem "stderr not empty: ${err}")
  elseif(G_PROFILE)
    file(SIZE "${dir}/${G_PROFILE}" size)
    if(NOT size GREATER 0)
      set(problem "empty profile ${G_PROFILE}")
    endif()
  else()
    check_golden("${dir}.stdout" "${G_AS}.stdout")
    foreach(f IN LISTS G_FILES)
      if(problem STREQUAL "")
        if(EXISTS "${dir}/${f}")
          check_golden("${dir}/${f}" "${G_AS}.${f}")
        else()
          set(problem "did not write ${f}")
        endif()
      endif()
    endforeach()
  endif()
  if(problem STREQUAL "")
    message(STATUS "ok    ${case}")
  else()
    message(STATUS "FAIL  ${case}: ${problem}")
    set(failed ${failed} ${case} PARENT_SCOPE)
  endif()
endfunction()

set(T4 --times=1,2,3,6 --p=2 --q=2)
set(T6 --times=1,2,3,4,5,6 --p=2 --q=3)

# solve: every solver mode, a byte-stable serial metrics snapshot, and a
# profiled exact solve.
golden(solve_heuristic ARGS solve ${T4} --solver=heuristic)
golden(solve_exact ARGS solve ${T6} --solver=exact)
golden(solve_auto ARGS solve ${T4})
golden(solve_auto_4x4 ARGS solve
  --times=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16 --p=4 --q=4)
golden(solve_metrics FILES metrics.json
  ARGS solve ${T6} --solver=exact --threads=1 --metrics=metrics.json)
golden(solve_profile PROFILE profile.json
  ARGS solve ${T6} --solver=exact --profile=profile.json)

golden(design ARGS design --times=1,2,3,4,5,6)
golden(design_csv ARGS design --times=1,2,3,4,5,6 --csv)

golden(panel_lu ARGS panel ${T4} --bp=8 --bq=6 --order=lu)
golden(panel_mmm ARGS panel ${T4} --bp=8 --bq=6 --order=mmm)

foreach(kernel mmm lu qr chol)
  golden(simulate_${kernel} ARGS simulate ${T4} --kernel=${kernel} --nb=16)
endforeach()
golden(simulate_trace_rebalance ARGS simulate ${T4} --kernel=lu --nb=16
  --trace=1 --rebalance=panel --straggler=0)
golden(simulate_kl_ethernet_csv ARGS simulate ${T4} --kernel=mmm --nb=16
  --strategy=kl --network=ethernet --csv)

# trace: both backends on every kernel. The mp runs are the smoke
# invocations the CI script used to run; --threads=2 must reproduce the
# serial bytes.
foreach(kernel mmm lu qr chol)
  golden(trace_sim_${kernel} FILES trace.json
    ARGS trace ${T4} --kernel=${kernel} --backend=sim --nb=8 --out=trace.json)
  golden(trace_mp_${kernel} FILES trace.json
    ARGS trace ${T4} --kernel=${kernel} --backend=mp --nb=4 --block=4
         --out=trace.json)
  golden(trace_mp_${kernel}_threads2 AS trace_mp_${kernel} FILES trace.json
    ARGS trace ${T4} --kernel=${kernel} --backend=mp --nb=4 --block=4
         --threads=2 --out=trace.json)
endforeach()
golden(trace_block_cyclic_free_csv FILES trace.json
  ARGS trace ${T4} --kernel=mmm --nb=12 --network=free
       --strategy=block-cyclic --csv)
golden(trace_sim_rebalance FILES trace.json
  ARGS trace ${T4} --kernel=lu --backend=sim --nb=8 --rebalance=panel
       --straggler=0 --out=trace.json)
golden(trace_mp_rebalance FILES trace.json
  ARGS trace ${T4} --kernel=mmm --backend=mp --nb=4 --block=4
       --rebalance=panel --straggler=0 --out=trace.json)
golden(trace_profile PROFILE profile.json
  ARGS trace ${T6} --backend=mp --kernel=lu --strategy=block-cyclic --nb=6
       --block=8 --profile=profile.json)

golden(observe_table ARGS observe ${T4} --kernel=lu)
golden(observe_sim_json ARGS observe ${T4} --kernel=qr --backend=sim --json)
golden(observe_out FILES imbalance.json
  ARGS observe ${T4} --kernel=chol --out=imbalance.json)
golden(observe_estimator_flags ARGS observe ${T4} --kernel=mmm --backend=sim
  --rebalance=panel --straggler=0 --ewma-alpha=1 --drift-band=0.25
  --min-samples=1)

# EXPERIMENTS.md section 15 (both distributions) and section 16.
golden(experiments_15_block_cyclic ARGS observe --times=1,1,1,2 --p=2 --q=2
  --kernel=lu --backend=mp --nb=4 --block=4 --strategy=block-cyclic
  --threads=2)
golden(experiments_15_heuristic ARGS observe --times=1,1,1,2 --p=2 --q=2
  --kernel=lu --backend=mp --nb=4 --block=4 --threads=2)
golden(experiments_16 ARGS simulate --times=1,1,1,1 --p=2 --q=2 --kernel=mmm
  --strategy=block-cyclic --nb=20 --rebalance=panel --straggler=0,1
  --straggler-factor=4 --ewma-alpha=1 --min-samples=1)

golden(bare EXIT 2)

# Bad integer flags exit 1 naming the flag before any work starts: a
# negative size or an out-of-range port must not wrap through an unsigned
# cast (into a near-endless loop, a shape check passed by overflow, an
# empty run, or another port).
golden(error_panel_bp EXIT 1 STDERR "--bp must be >= 1, got -1"
  ARGS panel ${T4} --bp=-1 --bq=6)
golden(error_simulate_nb EXIT 1 STDERR "--nb must be >= 1, got -1"
  ARGS simulate ${T4} --nb=-1)
golden(error_solve_negative_shape EXIT 1 STDERR "--p must be >= 1, got -1"
  ARGS solve --times=1,2,3,4 --p=-1 --q=-4)
golden(error_solve_wrapping_shape EXIT 1 STDERR "--p \\* --q must equal"
  ARGS solve --times=1,2,3,4 --p=4611686018427387905 --q=4)
golden(error_trace_nb EXIT 1 STDERR "--nb must be >= 1, got 0"
  ARGS trace ${T4} --backend=mp --nb=0)
golden(error_trace_nb_block_overflow EXIT 1
  STDERR "--nb \\* --block is too large"
  ARGS trace ${T4} --backend=mp --nb=4294967296 --block=4294967296)
golden(error_simulate_scale_overflow EXIT 1
  STDERR "--scale \\* --p/--q is too large"
  ARGS simulate --times=1,2,3,6 --p=4 --q=1 --scale=4611686018427387905)
golden(error_query_port EXIT 1 STDERR "--port must be <= 65535, got 70000"
  ARGS query ${T4} --port=70000)
golden(error_serve_port EXIT 1 STDERR "--port must be <= 65535, got 70000"
  ARGS serve --port=70000)
# One past the --threads and --shards bounds: every thread is an OS thread
# and the shard table is allocated up front, so both are refused before any
# thread starts or any table is built.
golden(error_solve_threads EXIT 1 STDERR "--threads must be <= 256, got 257"
  ARGS solve ${T4} --threads=257)
golden(error_trace_threads EXIT 1 STDERR "--threads must be <= 256, got 257"
  ARGS trace ${T4} --backend=mp --threads=257)
golden(error_serve_threads EXIT 1 STDERR "--threads must be <= 256, got 257"
  ARGS serve --threads=257)
golden(error_serve_shards EXIT 1
  STDERR "--shards must be <= 65536, got 65537"
  ARGS serve --shards=65537)

# A bad flag value reads as the check's message alone: no failed condition
# or source location.
golden(error_trace_network EXIT 1
  STDERR "^error: unknown --network: bogus\n$"
  ARGS trace ${T4} --network=bogus)

# Retired surfaces: `profile` is no subcommand, and serve --smoke and
# solve --csv are no flags.
golden(retired_profile EXIT 2 ARGS profile)
golden(retired_serve_smoke EXIT 1 STDERR "unknown flag --smoke"
  ARGS serve --smoke)
golden(retired_solve_csv EXIT 1 STDERR "unknown flag --csv"
  ARGS solve ${T4} --csv)

if(failed)
  list(LENGTH failed n)
  message(FATAL_ERROR "cli_golden: ${n} case(s) failed: ${failed}")
endif()
