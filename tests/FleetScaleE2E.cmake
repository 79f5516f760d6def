# End-to-end check of the fleet layer over the real binaries (invoked by
# ctest as the `fleet_scale_e2e` test):
#
#   1. fleet_scale --fast --seed 1 --report A                 (jobs 1)
#   2. fleet_scale --fast --seed 1 --jobs 8 --report B
#   3. the run directory grew fleet.jsonl (with schema-4 virtual times,
#      schema-5 provenance fields), telemetry.json and fleet.trace.json,
#      and a manifest fleet section
#   4. ropt-report validate A     -> fleet artifacts cross-check clean
#      (including the schema-5 sketch merge law and chain causality)
#   5. ropt-report summarize A    -> renders the fleet section
#      ropt-report fleet A        -> renders chains and class curves
#   6. fleet.jsonl, telemetry.json and fleet.trace.json A == B
#                                 -> all fleet artifacts are jobs-invariant
#   7. the same invariance under 30% churn (C jobs 1 == D jobs 8)
#
# Inputs: -DFLEET_SCALE=..., -DROPT_REPORT=..., -DWORK_DIR=...

foreach(Var FLEET_SCALE ROPT_REPORT WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(RunA "${WORK_DIR}/runA")
set(RunB "${WORK_DIR}/runB")

execute_process(
  COMMAND ${FLEET_SCALE} --fast --seed 1 --report ${RunA}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fleet_scale --report ${RunA} failed (${Rc})")
endif()

execute_process(
  COMMAND ${FLEET_SCALE} --fast --seed 1 --jobs 8 --report ${RunB}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fleet_scale --jobs 8 --report ${RunB} failed (${Rc})")
endif()

file(READ "${RunA}/manifest.json" Manifest)
set(Artifacts manifest.json evaluations.jsonl generations.jsonl
    fleet.jsonl telemetry.json fleet.trace.json metrics.json trace.json)
foreach(Artifact IN LISTS Artifacts)
  if(NOT EXISTS "${RunA}/${Artifact}")
    message(FATAL_ERROR "missing artifact ${RunA}/${Artifact}")
  endif()
endforeach()
if(NOT Manifest MATCHES "\"fleet\"")
  message(FATAL_ERROR "manifest.json lacks the fleet section")
endif()

# Schema 4: every fleet.jsonl record carries the step's virtual
# completion time on the event loop.
file(READ "${RunA}/fleet.jsonl" FleetLog)
if(NOT FleetLog MATCHES "\"virtual_time\"")
  message(FATAL_ERROR "fleet.jsonl lacks virtual_time (schema 4)")
endif()
# Schema 5: records carry the best genome's provenance chain, and the
# telemetry artifact carries the chains + mergeable sketches.
if(NOT FleetLog MATCHES "\"best_provenance\"")
  message(FATAL_ERROR "fleet.jsonl lacks best_provenance (schema 5)")
endif()
file(READ "${RunA}/telemetry.json" Telemetry)
if(NOT Telemetry MATCHES "\"chains\"")
  message(FATAL_ERROR "telemetry.json lacks provenance chains")
endif()

execute_process(
  COMMAND ${ROPT_REPORT} validate ${RunA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ropt-report validate failed (${Rc}):\n${Out}${Err}")
endif()
if(Err MATCHES "warning:")
  message(FATAL_ERROR "validate warned on a complete fleet run:\n${Err}")
endif()

execute_process(
  COMMAND ${ROPT_REPORT} summarize ${RunA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ropt-report summarize failed (${Rc}):\n${Out}${Err}")
endif()
if(NOT Out MATCHES "fleet")
  message(FATAL_ERROR "summary lacks the fleet section:\n${Out}")
endif()

# The fleet view: per-device-class round curves and at least one
# complete provenance chain (discovery -> merge -> arrivals).
execute_process(
  COMMAND ${ROPT_REPORT} fleet ${RunA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ropt-report fleet failed (${Rc}):\n${Out}${Err}")
endif()
if(NOT Out MATCHES "class 0:")
  message(FATAL_ERROR "fleet view lacks per-class round curves:\n${Out}")
endif()
if(NOT Out MATCHES "discovered d[0-9]+@vt[0-9]+, merged@vt[0-9]+")
  message(FATAL_ERROR "fleet view lacks a complete provenance chain:\n${Out}")
endif()

# The fleet-scale determinism bar: the whole step log — virtual times,
# device bests, hint adoption, even the seeded transport's retry
# counters — is byte-identical at any --jobs value. Since schema 5 the
# same holds for the merged telemetry sketches and the virtual-clock
# trace.
foreach(Artifact fleet.jsonl telemetry.json fleet.trace.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${RunA}/${Artifact}" "${RunB}/${Artifact}"
    RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${Artifact} differs between --jobs 1 and --jobs 8")
  endif()
endforeach()

# And the same bar under churn: 30% of devices leave mid-run and 30%
# join late on a seeded schedule; the step log must stay jobs-invariant.
set(RunC "${WORK_DIR}/runC")
set(RunD "${WORK_DIR}/runD")
execute_process(
  COMMAND ${FLEET_SCALE} --fast --seed 1 --churn 30 --report ${RunC}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fleet_scale --churn 30 --report ${RunC} failed (${Rc})")
endif()
execute_process(
  COMMAND ${FLEET_SCALE} --fast --seed 1 --churn 30 --jobs 8
          --report ${RunD}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fleet_scale --churn 30 --jobs 8 failed (${Rc})")
endif()
foreach(Artifact fleet.jsonl telemetry.json fleet.trace.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${RunC}/${Artifact}" "${RunD}/${Artifact}"
    RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "churned ${Artifact} differs between --jobs 1 and 8")
  endif()
endforeach()
execute_process(
  COMMAND ${ROPT_REPORT} validate ${RunC}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "validate failed on the churned run (${Rc}):\n"
                      "${Out}${Err}")
endif()

message(STATUS "fleet_scale_e2e: fleet artifacts valid, step log + "
               "telemetry + trace jobs-invariant (with and without "
               "churn), summary and fleet views render")
